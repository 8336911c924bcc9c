// Property-style test sweeps (TEST_P) over the system's core invariants:
// memory conservation across arbitrary platform mixes, snapshot idempotence,
// latency determinism, fault-count accounting, and primitive stress.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/baselines/container_platform.h"
#include "src/baselines/firecracker.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/mem/address_space.h"
#include "src/mem/host_memory.h"
#include "src/simcore/primitives.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

namespace fwcore {
namespace {

using fwlang::FunctionSource;
using fwlang::Language;
using fwtest::RunSync;
using fwwork::FaasdomBench;
using namespace fwbase::literals;

enum class Kind { kFireworks, kFirecracker, kOpenWhisk, kGvisor };

std::unique_ptr<ServerlessPlatform> Make(Kind kind, HostEnv& env) {
  switch (kind) {
    case Kind::kFireworks:
      return std::make_unique<FireworksPlatform>(env);
    case Kind::kFirecracker:
      return std::make_unique<fwbaselines::FirecrackerPlatform>(env);
    case Kind::kOpenWhisk:
      return std::make_unique<fwbaselines::OpenWhiskPlatform>(env);
    case Kind::kGvisor:
      return std::make_unique<fwbaselines::GvisorPlatform>(env);
  }
  return nullptr;
}


// gtest parameterized-test names must be alphanumeric.
std::string SanitizeName(std::string s) {
  std::string out;
  for (char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
        c == '_') {
      out.push_back(c);
    }
  }
  return out;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kFireworks:
      return "fireworks";
    case Kind::kFirecracker:
      return "firecracker";
    case Kind::kOpenWhisk:
      return "openwhisk";
    case Kind::kGvisor:
      return "gvisor";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Property: for every platform, every benchmark, every language — install +
// invoke succeeds, the latency breakdown is self-consistent, and teardown
// returns the host to zero memory.
// ---------------------------------------------------------------------------

class PlatformMatrixTest
    : public ::testing::TestWithParam<std::tuple<Kind, FaasdomBench, Language>> {};

TEST_P(PlatformMatrixTest, InvokeBreakdownConsistentAndTeardownClean) {
  const auto [kind, bench, language] = GetParam();
  const FunctionSource fn = fwwork::MakeFaasdom(bench, language);
  HostEnv env;
  auto platform = Make(kind, env);
  ASSERT_TRUE(RunSync(env.sim(), platform->Install(fn)).ok());
  auto result = RunSync(env.sim(), platform->Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(result.ok());

  // Breakdown must sum to the total (exactly — the platform measures all
  // phases with the same clock).
  const int64_t sum =
      result->startup.nanos() + result->exec.nanos() + result->others.nanos();
  EXPECT_EQ(sum, result->total.nanos());
  EXPECT_GT(result->startup.nanos(), 0);
  EXPECT_GT(result->exec.nanos(), 0);

  platform->ReleaseInstances();
  platform.reset();
  EXPECT_EQ(env.memory().used_bytes(), 0u) << KindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PlatformMatrixTest,
    ::testing::Combine(::testing::Values(Kind::kFireworks, Kind::kFirecracker,
                                         Kind::kOpenWhisk, Kind::kGvisor),
                       ::testing::Values(FaasdomBench::kFact, FaasdomBench::kMatrixMult,
                                         FaasdomBench::kDiskIo, FaasdomBench::kNetLatency),
                       ::testing::Values(Language::kNodeJs, Language::kPython)),
    [](const auto& info) {
      return SanitizeName(std::string(KindName(std::get<0>(info.param))) + "_" +
                          fwwork::FaasdomBenchName(std::get<1>(info.param)) + "_" +
                          fwlang::LanguageName(std::get<2>(info.param)));
    });

// ---------------------------------------------------------------------------
// Property: with N concurrent Fireworks instances, total PSS equals the
// host's used memory attributable to those instances, and per-instance PSS is
// monotonically non-increasing in N (more sharers, smaller shares).
// ---------------------------------------------------------------------------

class PssMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(PssMonotonicityTest, PerInstancePssShrinksWithSharers) {
  const int n = GetParam();
  HostEnv env;
  FireworksPlatform platform(env);
  const FunctionSource fn = fwwork::MakeFaasdom(FaasdomBench::kFact, Language::kNodeJs);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  InvokeOptions keep;
  keep.keep_instance = true;
  double last_per_instance = 1e18;
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(RunSync(env.sim(), platform.Invoke(fn.name, "{}", keep)).ok());
    const double per_instance = platform.MeasurePssBytes() / i;
    EXPECT_LE(per_instance, last_per_instance * 1.0001) << "at " << i;
    last_per_instance = per_instance;
  }
  // PSS must equal total host frames minus the (uninstanced) shared rest:
  // every resident frame belongs to either an instance mapping or the image.
  EXPECT_LE(platform.MeasurePssBytes(), static_cast<double>(env.memory().used_bytes()) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Counts, PssMonotonicityTest, ::testing::Values(2, 4, 8));

// ---------------------------------------------------------------------------
// Property: installation is deterministic — same function, same host seed →
// byte-identical snapshot sizes and identical install timing.
// ---------------------------------------------------------------------------

class InstallDeterminismTest
    : public ::testing::TestWithParam<std::tuple<FaasdomBench, Language>> {};

TEST_P(InstallDeterminismTest, SnapshotSizeAndTimingReproducible) {
  const auto [bench, language] = GetParam();
  const FunctionSource fn = fwwork::MakeFaasdom(bench, language);
  auto run_install = [&fn] {
    HostEnv env;
    FireworksPlatform platform(env);
    auto install = RunSync(env.sim(), platform.Install(fn));
    FW_CHECK(install.ok());
    return std::make_pair(install->snapshot_bytes, install->total.nanos());
  };
  const auto a = run_install();
  const auto b = run_install();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InstallDeterminismTest,
    ::testing::Combine(::testing::Values(FaasdomBench::kFact, FaasdomBench::kNetLatency),
                       ::testing::Values(Language::kNodeJs, Language::kPython)),
    [](const auto& info) {
      return SanitizeName(std::string(fwwork::FaasdomBenchName(std::get<0>(info.param))) +
                          "_" + fwlang::LanguageName(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Property: AddressSpace access accounting — for any (touch, dirty) sequence,
// every page is charged at most one frame, repeated access is free, and
// Unmap returns the exact number of frames taken.
// ---------------------------------------------------------------------------

class AccessSequenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccessSequenceTest, FrameAccountingBalances) {
  const uint64_t salt = GetParam();
  fwobs::Observability obs(fwtest::StoppedClock());
  fwmem::HostMemory host(8_GiB, obs);
  std::shared_ptr<fwmem::SnapshotImage> image;
  {
    fwmem::AddressSpace builder(host);
    auto seg = builder.AddSegment("mem", 512 * fwbase::kPageSize);
    builder.DirtyRandomFraction(seg, 0.8, salt);  // Partially-valid image.
    image = builder.TakeSnapshot("img");
  }
  EXPECT_EQ(host.used_frames(), 0u);
  {
    fwmem::AddressSpace space(host, image);
    // Random interleavings of reads and writes, twice each (idempotence).
    for (int round = 0; round < 2; ++round) {
      space.TouchRandomFraction(0, 0.5, salt * 31 + 1);
      space.DirtyRandomFraction(0, 0.3, salt * 31 + 2);
      space.TouchRandomFraction(0, 0.7, salt * 31 + 3);
      space.DirtyRandomFraction(0, 0.6, salt * 31 + 4);
    }
    // Every used frame is accounted either to the image's resident pages or
    // to this space's private pages.
    EXPECT_EQ(host.used_frames(),
              image->backing().resident_pages() + space.private_pages());
    // RSS covers every page we can see; USS only the private ones.
    EXPECT_GE(space.rss_bytes(), space.uss_bytes());
  }
  // Space destroyed: only (possibly zero) image cache frames remain... which
  // are freed when the last mapper goes; with no mappers the backing holds
  // nothing.
  EXPECT_EQ(host.used_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Salts, AccessSequenceTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---------------------------------------------------------------------------
// Property: simulation primitives under stress — N producers and M consumers
// over one channel lose nothing and preserve per-producer ordering.
// ---------------------------------------------------------------------------

class ChannelStressTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ChannelStressTest, NoLossUnderManyProducersConsumers) {
  const auto [producers, consumers] = GetParam();
  const int per_producer = 50;
  fwsim::Simulation sim;
  fwsim::Channel<std::pair<int, int>> channel(sim);
  std::vector<std::pair<int, int>> received;

  for (int c = 0; c < consumers; ++c) {
    sim.Spawn([](fwsim::Channel<std::pair<int, int>>& ch,
                 std::vector<std::pair<int, int>>& out, int count) -> fwsim::Co<void> {
      for (int i = 0; i < count; ++i) {
        out.push_back(co_await ch.Recv());
      }
    }(channel, received, producers * per_producer / consumers));
  }
  for (int p = 0; p < producers; ++p) {
    sim.Spawn([](fwsim::Simulation& s, fwsim::Channel<std::pair<int, int>>& ch, int id,
                 int count) -> fwsim::Co<void> {
      for (int i = 0; i < count; ++i) {
        co_await fwsim::Delay(s, fwbase::Duration::Micros(1 + (id * 7 + i) % 13));
        ch.Send({id, i});
      }
    }(sim, channel, p, per_producer));
  }
  sim.Run();
  ASSERT_EQ(received.size(), static_cast<size_t>(producers * per_producer));
  // Per-producer sequence numbers must arrive in order.
  std::vector<int> next(producers, 0);
  for (const auto& [id, seq] : received) {
    EXPECT_EQ(seq, next[id]) << "producer " << id;
    next[id] = seq + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, ChannelStressTest,
                         ::testing::Values(std::make_pair(1, 1), std::make_pair(5, 1),
                                           std::make_pair(2, 2), std::make_pair(10, 5)));

// ---------------------------------------------------------------------------
// Property: warm invocations are never slower than cold ones, on any
// cold/warm-capable platform and benchmark.
// ---------------------------------------------------------------------------

class WarmNotSlowerTest
    : public ::testing::TestWithParam<std::tuple<Kind, FaasdomBench>> {};

TEST_P(WarmNotSlowerTest, WarmTotalBelowColdTotal) {
  const auto [kind, bench] = GetParam();
  const FunctionSource fn = fwwork::MakeFaasdom(bench, Language::kNodeJs);
  HostEnv env;
  auto platform = Make(kind, env);
  ASSERT_TRUE(RunSync(env.sim(), platform->Install(fn)).ok());
  InvokeOptions cold_options;
  cold_options.force_cold = true;
  auto cold = RunSync(env.sim(), platform->Invoke(fn.name, "{}", cold_options));
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(RunSync(env.sim(), platform->Prewarm(fn.name)).ok());
  auto warm = RunSync(env.sim(), platform->Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->total.nanos(), cold->total.nanos());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WarmNotSlowerTest,
    ::testing::Combine(::testing::Values(Kind::kFirecracker, Kind::kOpenWhisk,
                                         Kind::kGvisor),
                       ::testing::Values(FaasdomBench::kFact, FaasdomBench::kDiskIo,
                                         FaasdomBench::kNetLatency)),
    [](const auto& info) {
      return SanitizeName(std::string(KindName(std::get<0>(info.param))) + "_" +
                          fwwork::FaasdomBenchName(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Simulation determinism: the same seed replays the identical event order.
// ---------------------------------------------------------------------------

class EventOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventOrderTest, SameSeedSameEventOrder) {
  // A fleet of coroutines, each sleeping RNG-drawn delays and logging its
  // wake-ups. The interleaved wake-up order (worker id, sim time) must replay
  // exactly under the same seed.
  auto run = [](uint64_t seed) {
    fwsim::Simulation sim(seed);
    std::vector<std::pair<int, int64_t>> order;
    for (int w = 0; w < 8; ++w) {
      sim.Spawn([](fwsim::Simulation& s, int id,
                   std::vector<std::pair<int, int64_t>>& log) -> fwsim::Co<void> {
        for (int i = 0; i < 20; ++i) {
          co_await fwsim::Delay(
              s, fwbase::Duration::Nanos(static_cast<int64_t>(s.rng().Exponential(50'000.0))));
          log.emplace_back(id, s.Now().nanos());
        }
      }(sim, w, order));
    }
    sim.Run();
    return order;
  };
  const uint64_t seed = GetParam();
  const auto a = run(seed);
  const auto b = run(seed);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 8u * 20u);
  // And a different seed produces a different interleaving.
  EXPECT_NE(a, run(seed + 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EventOrderTest, ::testing::Values(1u, 42u, 1337u));

// ---------------------------------------------------------------------------
// RNG stream independence: Fork() yields streams that do not interfere.
// ---------------------------------------------------------------------------

TEST(RngForkTest, ChildDrawsDoNotPerturbParent) {
  fwbase::Rng a(99);
  fwbase::Rng b(99);
  fwbase::Rng a_child = a.Fork();
  fwbase::Rng b_child = b.Fork();
  // Drain the two children by different amounts; the parents must still
  // agree draw-for-draw.
  for (int i = 0; i < 100; ++i) {
    (void)a_child.NextU64();
  }
  (void)b_child.NextU64();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "fork drains leaked into the parent";
  }
}

TEST(RngForkTest, SiblingStreamsDiffer) {
  fwbase::Rng master(7);
  fwbase::Rng first = master.Fork();
  fwbase::Rng second = master.Fork();
  int agreements = 0;
  for (int i = 0; i < 64; ++i) {
    agreements += first.NextU64() == second.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(agreements, 0) << "sibling forks produced overlapping streams";
}

// ---------------------------------------------------------------------------
// Stats merge: Merge() is associative, so sharded collection (e.g. per-seed
// chaos shards) can be folded in any grouping without changing the answer.
// ---------------------------------------------------------------------------

TEST(StatsMergeTest, SampleStatsMergeMatchesSequentialAndIsAssociative) {
  fwbase::Rng rng(2024);
  fwbase::SampleStats parts[3];
  fwbase::SampleStats sequential;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 200 + 100 * p; ++i) {
      const double x = rng.Exponential(3.5);
      parts[p].Add(x);
      sequential.Add(x);
    }
  }
  // (a ⊕ b) ⊕ c
  fwbase::SampleStats left;
  left.Merge(parts[0]);
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  // a ⊕ (b ⊕ c)
  fwbase::SampleStats bc;
  bc.Merge(parts[1]);
  bc.Merge(parts[2]);
  fwbase::SampleStats right;
  right.Merge(parts[0]);
  right.Merge(bc);

  for (const fwbase::SampleStats* s : {&left, &right}) {
    EXPECT_EQ(s->count(), sequential.count());
    EXPECT_NEAR(s->mean(), sequential.mean(), 1e-9);
    EXPECT_NEAR(s->stddev(), sequential.stddev(), 1e-9);
    EXPECT_NEAR(s->sum(), sequential.sum(), 1e-6);
    // Order statistics are exact: retained samples only get re-sorted.
    EXPECT_EQ(s->min(), sequential.min());
    EXPECT_EQ(s->max(), sequential.max());
    EXPECT_EQ(s->Percentile(50.0), sequential.Percentile(50.0));
    EXPECT_EQ(s->Percentile(99.0), sequential.Percentile(99.0));
  }
  // Merging an empty side is the identity.
  fwbase::SampleStats empty;
  left.Merge(empty);
  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-9);
}

TEST(StatsMergeTest, LogHistogramMergeIsExactlyAssociative) {
  fwbase::Rng rng(31337);
  fwbase::LogHistogram parts[3];
  fwbase::LogHistogram sequential;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 500; ++i) {
      const uint64_t v = rng.UniformU64(1u << (8 + 8 * p));
      parts[p].Add(v);
      sequential.Add(v);
    }
  }
  fwbase::LogHistogram left;
  left.Merge(parts[0]);
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  fwbase::LogHistogram bc;
  bc.Merge(parts[1]);
  bc.Merge(parts[2]);
  fwbase::LogHistogram right;
  right.Merge(parts[0]);
  right.Merge(bc);

  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_EQ(right.count(), sequential.count());
  EXPECT_EQ(left.ToString(), sequential.ToString());
  EXPECT_EQ(right.ToString(), sequential.ToString());
  for (double p : {50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(left.PercentileUpperBound(p), sequential.PercentileUpperBound(p));
    EXPECT_EQ(right.PercentileUpperBound(p), sequential.PercentileUpperBound(p));
  }
}

}  // namespace
}  // namespace fwcore
