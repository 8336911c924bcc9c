// Unit tests for the fault-injection subsystem: plan parsing, the inertness
// guarantee (empty plan draws no randomness), per-kind stream independence,
// windows, trip budgets, and determinism of the injector itself.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/simcore/simulation.h"
#include "tests/test_util.h"

namespace fwfault {
namespace {

using fwbase::Duration;
using fwbase::SimTime;

TEST(FaultKindNameTest, NamesAreStableAndUnique) {
  std::vector<std::string> names;
  for (int i = 0; i < kFaultKindCount; ++i) {
    names.push_back(FaultKindName(static_cast<FaultKind>(i)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    EXPECT_NE(names[i], "?");
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(FaultPlanTest, ParseNoneAndEmptyYieldEmptyPlans) {
  auto none = FaultPlan::Parse("none");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  auto blank = FaultPlan::Parse("");
  ASSERT_TRUE(blank.ok());
  EXPECT_TRUE(blank->empty());
}

TEST(FaultPlanTest, ParseRoundTripsEveryKindName) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    const FaultKind kind = static_cast<FaultKind>(i);
    auto plan = FaultPlan::Parse(std::string(FaultKindName(kind)) + "=0.25");
    ASSERT_TRUE(plan.ok()) << FaultKindName(kind);
    EXPECT_DOUBLE_EQ(plan->spec(kind).probability, 0.25);
    EXPECT_FALSE(plan->empty());
  }
}

TEST(FaultPlanTest, ParseMultipleKinds) {
  auto plan = FaultPlan::Parse("vm_crash_on_resume=0.05,broker_drop_message=0.1");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->spec(FaultKind::kVmCrashOnResume).probability, 0.05);
  EXPECT_DOUBLE_EQ(plan->spec(FaultKind::kBrokerDropMessage).probability, 0.1);
  EXPECT_DOUBLE_EQ(plan->spec(FaultKind::kDiskReadError).probability, 0.0);
}

TEST(FaultPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::Parse("flux_capacitor=0.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("disk_read_error=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("disk_read_error=-0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("disk_read_error").ok());
  EXPECT_FALSE(FaultPlan::Parse("disk_read_error=abc").ok());
  // NaN fails every comparison, so a range check written as p < 0 || p > 1
  // lets it through to Set's check, which aborts.
  EXPECT_FALSE(FaultPlan::Parse("disk_read_error=nan").ok());
  EXPECT_FALSE(FaultPlan::Parse("disk_read_error=-nan").ok());
}

// Per-test-seeded fixture: none of these tests' assertions depend on the
// seed value (they use probability 0/1 plans or compare two identical
// draws), so decorrelating the streams costs nothing.
class FaultInjectorTest : public fwtest::SimTest {};

TEST_F(FaultInjectorTest, EmptyPlanNeverTripsButCountsOpportunities) {
  fwsim::Simulation& sim = sim_;
  FaultInjector injector(sim, FaultPlan(), fwtest::PerTestSeed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.Trip(FaultKind::kDiskReadError));
  }
  EXPECT_EQ(injector.trips(FaultKind::kDiskReadError), 0u);
  EXPECT_EQ(injector.opportunities(FaultKind::kDiskReadError), 1000u);
  EXPECT_EQ(injector.total_trips(), 0u);
}

TEST_F(FaultInjectorTest, ProbabilityOneAlwaysTrips) {
  fwsim::Simulation& sim = sim_;
  FaultPlan plan;
  plan.Set(FaultKind::kNetLinkLoss, 1.0);
  FaultInjector injector(sim, plan, fwtest::PerTestSeed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.Trip(FaultKind::kNetLinkLoss));
  }
  EXPECT_EQ(injector.trips(FaultKind::kNetLinkLoss), 100u);
}

TEST_F(FaultInjectorTest, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.Set(FaultKind::kBrokerDropMessage, 0.3);
  auto draw = [&plan](uint64_t seed) {
    fwsim::Simulation sim(1);
    FaultInjector injector(sim, plan, seed);
    std::vector<bool> decisions;
    for (int i = 0; i < 500; ++i) {
      decisions.push_back(injector.Trip(FaultKind::kBrokerDropMessage));
    }
    return decisions;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));  // Astronomically unlikely to collide.
}

TEST_F(FaultInjectorTest, KindsUseIndependentStreams) {
  // The decision sequence for kind A must not change when kind B is also
  // enabled and interleaved: each kind draws from its own stream.
  FaultPlan solo;
  solo.Set(FaultKind::kDiskReadError, 0.4);
  FaultPlan both = solo;
  both.Set(FaultKind::kNetLinkLoss, 0.4);

  auto draw = [](const FaultPlan& plan, bool interleave) {
    fwsim::Simulation sim(1);
    FaultInjector injector(sim, plan, 1234);
    std::vector<bool> disk;
    for (int i = 0; i < 300; ++i) {
      if (interleave) {
        (void)injector.Trip(FaultKind::kNetLinkLoss);
      }
      disk.push_back(injector.Trip(FaultKind::kDiskReadError));
    }
    return disk;
  };
  EXPECT_EQ(draw(solo, false), draw(both, true));
}

TEST_F(FaultInjectorTest, WindowGatesTrips) {
  fwsim::Simulation& sim = sim_;
  FaultPlan plan;
  plan.Set(FaultKind::kSandboxCrash, 1.0);
  plan.SetWindow(FaultKind::kSandboxCrash, SimTime::Zero() + Duration::Millis(10),
                 SimTime::Zero() + Duration::Millis(20));
  FaultInjector injector(sim, plan, fwtest::PerTestSeed());

  EXPECT_FALSE(injector.Trip(FaultKind::kSandboxCrash));  // t=0: before window.
  sim.RunFor(Duration::Millis(15));
  EXPECT_TRUE(injector.Trip(FaultKind::kSandboxCrash));   // t=15ms: inside.
  sim.RunFor(Duration::Millis(15));
  EXPECT_FALSE(injector.Trip(FaultKind::kSandboxCrash));  // t=30ms: after.
  EXPECT_EQ(injector.trips(FaultKind::kSandboxCrash), 1u);
}

TEST_F(FaultInjectorTest, MaxTripsBoundsTheBudget) {
  fwsim::Simulation& sim = sim_;
  FaultPlan plan;
  plan.Set(FaultKind::kVmCrashOnResume, 1.0, /*max_trips=*/3);
  FaultInjector injector(sim, plan, fwtest::PerTestSeed());
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (injector.Trip(FaultKind::kVmCrashOnResume)) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.trips(FaultKind::kVmCrashOnResume), 3u);
  EXPECT_EQ(injector.opportunities(FaultKind::kVmCrashOnResume), 50u);
}

TEST_F(FaultInjectorTest, SampleDelayIsDeterministicAndPositive) {
  FaultPlan plan;
  plan.Set(FaultKind::kBrokerDelayMessage, 1.0);
  auto sample = [&plan] {
    fwsim::Simulation sim(1);
    FaultInjector injector(sim, plan, 77);
    std::vector<Duration> delays;
    for (int i = 0; i < 100; ++i) {
      delays.push_back(injector.SampleDelay(FaultKind::kBrokerDelayMessage,
                                            Duration::Millis(5)));
    }
    return delays;
  };
  const auto a = sample();
  const auto b = sample();
  EXPECT_EQ(a, b);
  for (const Duration& d : a) {
    EXPECT_GE(d.nanos(), 0);
  }
}

}  // namespace
}  // namespace fwfault
