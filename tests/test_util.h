// Shared helpers for driving coroutines to completion inside tests, the
// per-test simulation fixture, the instruments a host subsystem takes, and
// the one-line description the pinned-timing tests compare.
#ifndef FIREWORKS_TESTS_TEST_UTIL_H_
#define FIREWORKS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/base/hash.h"
#include "src/core/platform.h"
#include "src/fault/fault.h"
#include "src/obs/observability.h"
#include "src/simcore/run_sync.h"
#include "src/simcore/simulation.h"

namespace fwtest {

using fwsim::RunSync;
using fwsim::RunSyncVoid;

// FNV-1a over the test's full "Suite.Name": stable across runs, platforms,
// and gtest orderings/filters.
inline uint64_t PerTestSeed() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "fwtest";
  if (info != nullptr) {
    name = std::string(info->test_suite_name()) + "." + info->name();
  }
  return fwbase::Fnv1a(name);
}

// Fixture giving every test its own Simulation seeded from the test's full
// name. Tests that share one hard-coded seed all draw the same RNG stream, so
// a suite can silently depend on cross-test coincidences (and a new test
// "randomly" colliding with an old one's draws). Hashing the test name keeps
// each test deterministic run-to-run while decorrelating it from every other
// test, regardless of execution order or --gtest_filter.
class SimTest : public ::testing::Test {
 protected:
  SimTest() : sim_(PerTestSeed()) {}

  fwsim::Simulation sim_;
};

// The clock of an Observability in a test that runs no simulation.
inline fwobs::SimClockFn StoppedClock() {
  return [] { return fwbase::SimTime::Zero(); };
}

// The instruments a host subsystem takes at construction, for a test that
// builds one without a HostEnv: an Observability on `sim`'s clock (its tracer
// and profiler stay off until the test enables them) and an empty-plan
// FaultInjector, which draws no randomness and never fires.
struct Instruments {
  explicit Instruments(fwsim::Simulation& sim)
      : obs([&sim] { return sim.Now(); }), injector(sim, fwfault::FaultPlan(), /*seed=*/0) {}

  fwobs::Observability obs;
  fwfault::FaultInjector injector;
};

// The result's windows in ns, its recovery bookkeeping, and the name and
// duration of every child of its root span.
inline std::string DescribeInvocation(fwcore::HostEnv& env, const fwcore::InvocationResult& r) {
  std::string out = "cold=" + std::to_string(r.cold) +
                    " attempts=" + std::to_string(r.attempts) +
                    " startup=" + std::to_string(r.startup.nanos()) +
                    " exec=" + std::to_string(r.exec.nanos()) +
                    " others=" + std::to_string(r.others.nanos()) +
                    " total=" + std::to_string(r.total.nanos()) + " |";
  if (r.root_span == nullptr) {
    return out + " no root span";
  }
  for (const fwobs::Span* child : env.tracer().ChildrenOf(r.root_span->id())) {
    out += " " + child->name() + "=" + std::to_string(child->duration().nanos());
  }
  return out;
}

}  // namespace fwtest

#endif  // FIREWORKS_TESTS_TEST_UTIL_H_
