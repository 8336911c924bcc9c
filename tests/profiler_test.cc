// Profiler and SLO-monitor suites: scope attribution under the dual-clock
// model (sim + wall), coroutine-shaped edge cases (out-of-order exits,
// detached frames), the collapsed-stack/top-N exporters, multi-window
// burn-rate alerting — and the determinism contract itself: an instrumented
// cluster run must produce the exact outcome digest of an uninstrumented one.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/cluster/app_table.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/slo.h"
#include "src/obs/export.h"
#include "src/obs/observability.h"
#include "src/obs/profiler.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/loadgen.h"
#include "tests/test_util.h"

namespace fwobs {
namespace {

using fwbase::Duration;
using fwbase::SimTime;

// A profiler on a hand-cranked sim clock: every sim-time assertion below is
// exact. (Wall time still comes from the real steady_clock; tests only
// assert its invariants, never its values.)
struct ManualClockProfiler {
  SimTime now;
  Profiler profiler{[this] { return now; }};

  ManualClockProfiler() { profiler.Enable(); }
  void Advance(Duration d) { now = now + d; }
};

const Profiler::ScopeTotals* FindScope(const std::vector<Profiler::ScopeTotals>& totals,
                                       const std::string& name) {
  for (const auto& t : totals) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  ManualClockProfiler m;
  m.profiler.Disable();
  const ProfScopeId scope = m.profiler.RegisterScope("idle");
  const uint64_t token = m.profiler.Enter(scope);
  EXPECT_EQ(token, 0u);
  m.profiler.Exit(token);  // Exiting the "disabled" token is a no-op.
  EXPECT_TRUE(m.profiler.nodes().empty());
  EXPECT_TRUE(m.profiler.Totals().empty());
}

TEST(ProfilerTest, NestedScopesSplitSelfFromTotal) {
  ManualClockProfiler m;
  const ProfScopeId outer = m.profiler.RegisterScope("outer");
  const ProfScopeId inner = m.profiler.RegisterScope("inner");

  const uint64_t t_outer = m.profiler.Enter(outer);
  m.Advance(Duration::Millis(10));
  {
    const uint64_t t_inner = m.profiler.Enter(inner);
    m.Advance(Duration::Millis(5));
    m.profiler.Exit(t_inner);
  }
  m.Advance(Duration::Millis(1));
  m.profiler.Exit(t_outer);

  const auto totals = m.profiler.Totals();
  const auto* to = FindScope(totals, "outer");
  const auto* ti = FindScope(totals, "inner");
  ASSERT_NE(to, nullptr);
  ASSERT_NE(ti, nullptr);
  EXPECT_EQ(to->calls, 1u);
  EXPECT_EQ(to->sim_total_nanos, Duration::Millis(16).nanos());
  EXPECT_EQ(to->sim_self_nanos, Duration::Millis(11).nanos());
  EXPECT_EQ(ti->sim_total_nanos, Duration::Millis(5).nanos());
  EXPECT_EQ(ti->sim_self_nanos, Duration::Millis(5).nanos());
  // Wall time is host-dependent, but its shape is not: child total can never
  // exceed parent total, and self never exceeds total.
  EXPECT_LE(ti->wall_total_nanos, to->wall_total_nanos);
  EXPECT_LE(to->wall_self_nanos, to->wall_total_nanos);
}

TEST(ProfilerTest, RepeatCallsOnOnePathAccumulate) {
  ManualClockProfiler m;
  const ProfScopeId scope = m.profiler.RegisterScope("dispatch");
  for (int i = 0; i < 3; ++i) {
    const uint64_t t = m.profiler.Enter(scope);
    m.Advance(Duration::Millis(2));
    m.profiler.Exit(t);
  }
  ASSERT_EQ(m.profiler.nodes().size(), 1u);  // One path node, three calls.
  EXPECT_EQ(m.profiler.nodes()[0].calls, 3u);
  EXPECT_EQ(m.profiler.nodes()[0].sim_total_nanos, Duration::Millis(6).nanos());
}

TEST(ProfilerTest, OutOfOrderExitRemovesMidStackFrame) {
  // A resumed coroutine's scope can outlive the dispatch scope that resumed
  // it: exit the parent first, then the child.
  ManualClockProfiler m;
  const ProfScopeId parent = m.profiler.RegisterScope("parent");
  const ProfScopeId child = m.profiler.RegisterScope("child");

  const uint64_t t_parent = m.profiler.Enter(parent);
  m.Advance(Duration::Millis(1));
  const uint64_t t_child = m.profiler.Enter(child);
  m.Advance(Duration::Millis(2));
  m.profiler.Exit(t_parent);  // Parent closes while the child is still open.
  m.Advance(Duration::Millis(3));
  m.profiler.Exit(t_child);

  const auto totals = m.profiler.Totals();
  const auto* tp = FindScope(totals, "parent");
  const auto* tc = FindScope(totals, "child");
  ASSERT_NE(tp, nullptr);
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tp->sim_total_nanos, Duration::Millis(3).nanos());
  EXPECT_EQ(tc->sim_total_nanos, Duration::Millis(5).nanos());
  // The child nominally outlived its parent; self time clamps at zero
  // instead of going negative.
  EXPECT_EQ(tp->sim_self_nanos, 0);
}

TEST(ProfilerTest, DetachedFramesRootTheirOwnPath) {
  ManualClockProfiler m;
  const ProfScopeId invoke = m.profiler.RegisterScope("invoke");
  const ProfScopeId dispatch = m.profiler.RegisterScope("dispatch");

  // An await-spanning frame opens, then an unrelated event dispatches while
  // it is in flight. The dispatch must NOT become a child of the invoke.
  const uint64_t t_invoke = m.profiler.EnterDetached(invoke);
  m.Advance(Duration::Millis(4));
  {
    const uint64_t t_dispatch = m.profiler.Enter(dispatch);
    m.Advance(Duration::Millis(1));
    m.profiler.Exit(t_dispatch);
  }
  m.Advance(Duration::Millis(5));
  m.profiler.Exit(t_invoke);

  ASSERT_EQ(m.profiler.nodes().size(), 2u);
  for (const auto& node : m.profiler.nodes()) {
    EXPECT_EQ(node.parent, -1) << m.profiler.scope_name(node.scope);
  }
  // Bind the snapshot first: FindScope returns a pointer into it, which
  // would dangle past the full expression if Totals() stayed a temporary.
  const auto totals = m.profiler.Totals();
  const auto* ti = FindScope(totals, "invoke");
  ASSERT_NE(ti, nullptr);
  EXPECT_EQ(ti->sim_total_nanos, Duration::Millis(10).nanos());
  // Detached frames accumulate sim time only: exclusive wall time across an
  // await window would be meaningless.
  EXPECT_EQ(ti->wall_total_nanos, 0);
}

TEST(ProfilerTest, TopNRanksAcrossBothClocks) {
  ManualClockProfiler m;
  const ProfScopeId big = m.profiler.RegisterScope("big.sim");
  const ProfScopeId small = m.profiler.RegisterScope("small.sim");

  const uint64_t t_big = m.profiler.EnterDetached(big);
  m.Advance(Duration::Millis(100));
  m.profiler.Exit(t_big);
  const uint64_t t_small = m.profiler.EnterDetached(small);
  m.Advance(Duration::Millis(1));
  m.profiler.Exit(t_small);

  const auto top = m.profiler.TopN(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].name, "big.sim");
  EXPECT_EQ(m.profiler.TopN(10).size(), 2u);
}

TEST(ProfilerTest, MergeFoldsPathsByScopeName) {
  ManualClockProfiler a;
  ManualClockProfiler b;
  for (ManualClockProfiler* m : {&a, &b}) {
    const ProfScopeId outer = m->profiler.RegisterScope("outer");
    const ProfScopeId inner = m->profiler.RegisterScope("inner");
    const uint64_t t_outer = m->profiler.Enter(outer);
    const uint64_t t_inner = m->profiler.Enter(inner);
    m->Advance(Duration::Millis(3));
    m->profiler.Exit(t_inner);
    m->profiler.Exit(t_outer);
  }
  // Different registration order in the target must not confuse the merge:
  // matching is by name, not id.
  Profiler merged([] { return SimTime(); });
  merged.RegisterScope("inner");
  merged.Merge(a.profiler);
  merged.Merge(b.profiler);

  // Bind the snapshot first: FindScope returns a pointer into it, which
  // would dangle past the full expression if Totals() stayed a temporary.
  const auto merged_totals = merged.Totals();
  const auto* inner = FindScope(merged_totals, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 2u);
  EXPECT_EQ(inner->sim_total_nanos, Duration::Millis(6).nanos());
  ASSERT_EQ(merged.nodes().size(), 2u);  // outer, outer;inner — shared paths.
}

TEST(ProfilerTest, ResetDropsPathsButKeepsScopes) {
  ManualClockProfiler m;
  const ProfScopeId scope = m.profiler.RegisterScope("scope");
  const uint64_t t = m.profiler.Enter(scope);
  m.Advance(Duration::Millis(1));
  m.profiler.Exit(t);
  ASSERT_FALSE(m.profiler.nodes().empty());

  m.profiler.Reset();
  EXPECT_TRUE(m.profiler.nodes().empty());
  EXPECT_EQ(m.profiler.scope_name(scope), "scope");
  EXPECT_EQ(m.profiler.RegisterScope("scope"), scope);
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(ProfilerExportTest, CollapsedStacksRenderRootToLeafPaths) {
  ManualClockProfiler m;
  const ProfScopeId outer = m.profiler.RegisterScope("outer");
  const ProfScopeId inner = m.profiler.RegisterScope("inner");
  const uint64_t t_outer = m.profiler.EnterDetached(outer);
  m.Advance(Duration::Millis(7));
  m.profiler.Exit(t_outer);
  const uint64_t t2_outer = m.profiler.Enter(outer);
  const uint64_t t2_inner = m.profiler.Enter(inner);
  m.Advance(Duration::Millis(2));
  m.profiler.Exit(t2_inner);
  m.profiler.Exit(t2_outer);

  // Sim dimension is fully deterministic: pin the exact rendering. The
  // attached outer frame has zero sim self (all 2 ms belong to inner), so
  // only the detached root and the outer;inner leaf appear.
  EXPECT_EQ(ProfilerCollapsed(m.profiler, ProfileDim::kSim),
            "outer 7000000\n"
            "outer;inner 2000000\n");
}

TEST(ProfilerExportTest, TopNTableShowsBothClocks) {
  ManualClockProfiler m;
  const ProfScopeId scope = m.profiler.RegisterScope("bus.produce");
  const uint64_t t = m.profiler.EnterDetached(scope);
  m.Advance(Duration::Millis(3));
  m.profiler.Exit(t);

  const std::string table = ProfilerTopN(m.profiler, 10);
  EXPECT_NE(table.find("scope"), std::string::npos);
  EXPECT_NE(table.find("wall self"), std::string::npos);
  EXPECT_NE(table.find("sim self"), std::string::npos);
  EXPECT_NE(table.find("bus.produce"), std::string::npos);
  EXPECT_NE(table.find("3.00ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO monitor.
// ---------------------------------------------------------------------------

fwcluster::SloConfig TestSloConfig() {
  fwcluster::SloConfig config;
  config.objective = 0.9;  // 10% error budget.
  config.fast_window = Duration::Seconds(1);
  config.slow_window = Duration::Seconds(4);
  config.burn_threshold = 4.0;  // Alert at >=40% errors in both windows.
  return config;
}

TEST(SloMonitorTest, AttainmentTracksGoodFraction) {
  fwcluster::AppTable apps;
  fwobs::Observability obs(fwtest::StoppedClock());
  fwcluster::SloMonitor slo(apps, TestSloConfig(), Duration::Millis(250), obs);
  EXPECT_EQ(slo.Attainment(), 1.0);  // Nothing recorded yet.
  for (int i = 0; i < 9; ++i) {
    slo.Record(apps.Intern("app-a"), true);
  }
  slo.Record(apps.Intern("app-a"), false);
  slo.Record(apps.Intern("app-b"), true);
  EXPECT_DOUBLE_EQ(slo.Attainment(), 10.0 / 11.0);
  EXPECT_DOUBLE_EQ(slo.WorstAttainment(), 0.9);  // app-a, not the fleet mean.
  EXPECT_EQ(slo.total(), 11u);
  EXPECT_EQ(slo.good(), 10u);
  // The per-app gauge reads as met until a tick samples it.
  EXPECT_EQ(obs.metrics().GaugeValue("slo.attainment", "app-a"), 1.0);
  slo.Tick();
  EXPECT_DOUBLE_EQ(obs.metrics().GaugeValue("slo.attainment", "app-a"), 0.9);
}

TEST(SloMonitorTest, SustainedBurnFiresOneEdgeTriggeredAlert) {
  fwcluster::AppTable apps;
  fwobs::Observability obs(fwtest::StoppedClock());
  fwcluster::SloMonitor slo(apps, TestSloConfig(), Duration::Millis(250), obs);
  // 50% errors, well above the 40% alerting line, sustained long enough to
  // light up the slow window too (16 buckets of 250 ms = 4 s).
  for (int tick = 0; tick < 20; ++tick) {
    slo.Record(apps.Intern("app-a"), true);
    slo.Record(apps.Intern("app-a"), false);
    slo.Tick();
  }
  ASSERT_EQ(slo.Reports().size(), 1u);
  EXPECT_TRUE(slo.Reports()[0].alerting);
  EXPECT_EQ(slo.alerts(), 1u);  // Edge-triggered: one firing, not one per tick.
  EXPECT_GE(slo.Reports()[0].burn_fast, 4.0);
  EXPECT_GE(slo.Reports()[0].burn_slow, 4.0);

  // Recovery: once the fast window cools below the threshold the alert
  // clears, even while the slow window still remembers the incident.
  for (int tick = 0; tick < 5; ++tick) {
    slo.Record(apps.Intern("app-a"), true);
    slo.Record(apps.Intern("app-a"), true);
    slo.Tick();
  }
  EXPECT_FALSE(slo.Reports()[0].alerting);
  EXPECT_EQ(slo.alerts(), 1u);
}

TEST(SloMonitorTest, BriefBlipAmidSteadyTrafficDoesNotPage) {
  fwcluster::AppTable apps;
  fwobs::Observability obs(fwtest::StoppedClock());
  fwcluster::SloMonitor slo(apps, TestSloConfig(), Duration::Millis(250), obs);
  // Steady good traffic fills both windows first; then one bucket of errors
  // burns the fast window hot (8 bad of 14 in-window = burn 5.7) while the
  // slow window stays diluted (8 of 38 = burn 2.1 < 4) -> no page. This is
  // exactly what the second window buys: a blip with no surrounding traffic
  // (a cold ramp) WOULD page, because then the blip is the whole window.
  for (int tick = 0; tick < 16; ++tick) {
    slo.Record(apps.Intern("app-a"), true);
    slo.Record(apps.Intern("app-a"), true);
    slo.Tick();
  }
  for (int i = 0; i < 8; ++i) {
    slo.Record(apps.Intern("app-a"), false);
  }
  slo.Tick();
  EXPECT_GE(slo.Reports()[0].burn_fast, 4.0);
  EXPECT_LT(slo.Reports()[0].burn_slow, 4.0);
  for (int tick = 0; tick < 5; ++tick) {
    slo.Record(apps.Intern("app-a"), true);
    slo.Record(apps.Intern("app-a"), true);
    slo.Tick();
  }
  EXPECT_EQ(slo.alerts(), 0u);
  EXPECT_FALSE(slo.Reports()[0].alerting);
}

TEST(SloMonitorTest, PerAppIsolation) {
  fwcluster::AppTable apps;
  fwobs::Observability obs(fwtest::StoppedClock());
  fwcluster::SloMonitor slo(apps, TestSloConfig(), Duration::Millis(250), obs);
  for (int tick = 0; tick < 20; ++tick) {
    slo.Record(apps.Intern("victim"), false);
    slo.Record(apps.Intern("healthy"), true);
    slo.Tick();
  }
  const auto reports = slo.Reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].app, "healthy");
  EXPECT_FALSE(reports[0].alerting);
  EXPECT_TRUE(reports[1].alerting);
  EXPECT_EQ(slo.alerts(), 1u);
}

// The running window sums against a brute-force recomputation from the full
// bucket history: seeded random Record/Tick sequences over three window
// shapes, equal fast and slow windows included. Sums of whole counts are
// exact, so every burn rate must match bit for bit, and with it every alert
// edge.
TEST(SloMonitorTest, RunningWindowSumsMatchBruteForceHistory) {
  struct Shape {
    Duration fast;
    Duration slow;
    size_t fast_buckets;  // Window / 250 ms tick, rounded up.
    size_t slow_buckets;
  };
  const Shape shapes[] = {
      {Duration::Seconds(1), Duration::Seconds(4), 4, 16},
      {Duration::Seconds(5), Duration::Seconds(60), 20, 240},
      {Duration::Seconds(2), Duration::Seconds(2), 8, 8},
  };
  const std::vector<std::string> names = {"app-c", "app-a", "app-d", "app-b"};
  struct Bucket {
    uint64_t total = 0;
    uint64_t bad = 0;
  };
  struct Expected {
    std::vector<Bucket> history;  // One bucket per tick, the open one last.
    uint64_t alerts = 0;
    bool alerting = false;
  };
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(fwbase::StrFormat("fast %lld ms, slow %lld ms, seed %llu",
                                     static_cast<long long>(shape.fast.millis()),
                                     static_cast<long long>(shape.slow.millis()),
                                     static_cast<unsigned long long>(seed)));
      fwcluster::SloConfig config = TestSloConfig();
      config.fast_window = shape.fast;
      config.slow_window = shape.slow;
      fwcluster::AppTable apps;
      fwobs::Observability obs(fwtest::StoppedClock());
      fwcluster::SloMonitor slo(apps, config, Duration::Millis(250), obs);
      fwbase::Rng rng(seed);
      const double bad_fraction = rng.UniformDouble(0.0, 0.8);
      const double tick_chance = rng.UniformDouble(0.05, 0.6);
      const size_t num_apps = 1 + rng.UniformU64(names.size());
      std::map<std::string, Expected> expected;
      size_t ticks = 0;
      for (int step = 0; step < 2000; ++step) {
        if (!rng.Chance(tick_chance)) {
          const std::string& name = names[rng.UniformU64(num_apps)];
          const bool good = !rng.Chance(bad_fraction);
          slo.Record(apps.Intern(name), good);
          Expected& e = expected[name];
          e.history.resize(ticks + 1);
          e.history[ticks].total += 1;
          e.history[ticks].bad += good ? 0 : 1;
          continue;
        }
        slo.Tick();
        const std::vector<fwcluster::SloMonitor::AppReport> reports = slo.Reports();
        ASSERT_EQ(reports.size(), expected.size());
        size_t r = 0;
        for (auto& [name, e] : expected) {  // Name order, as Reports() promises.
          e.history.resize(ticks + 1);
          auto burn = [&e, &config, ticks](size_t buckets) {
            Bucket sum;
            for (size_t k = 0; k < buckets && k <= ticks; ++k) {
              sum.total += e.history[ticks - k].total;
              sum.bad += e.history[ticks - k].bad;
            }
            return sum.total == 0 ? 0.0
                                  : static_cast<double>(sum.bad) /
                                        static_cast<double>(sum.total) /
                                        (1.0 - config.objective);
          };
          const double fast = burn(shape.fast_buckets);
          const double slow = burn(shape.slow_buckets);
          if (!e.alerting && fast >= config.burn_threshold &&
              slow >= config.burn_threshold) {
            e.alerting = true;
            ++e.alerts;
          } else if (e.alerting && fast < config.burn_threshold) {
            e.alerting = false;
          }
          const fwcluster::SloMonitor::AppReport& report = reports[r++];
          ASSERT_EQ(report.app, name);
          ASSERT_EQ(report.burn_fast, fast) << "tick " << ticks;
          ASSERT_EQ(report.burn_slow, slow) << "tick " << ticks;
          ASSERT_EQ(report.alerting, e.alerting) << "tick " << ticks;
          ASSERT_EQ(report.alerts, e.alerts) << "tick " << ticks;
        }
        ++ticks;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The determinism contract: profiling is pure observation.
// ---------------------------------------------------------------------------

fwcluster::HostCalibration TestCalibration() {
  fwcluster::HostCalibration cal;
  cal.cold_startup = Duration::Millis(17);
  cal.cold_exec = Duration::Millis(3);
  cal.cold_others = Duration::Millis(1);
  cal.warm_startup = Duration::Micros(1600);
  cal.warm_exec = Duration::Millis(3);
  cal.warm_others = Duration::Micros(400);
  cal.prepare_cost = Duration::Millis(16);
  cal.instance_pss_bytes = 50e6;
  cal.pooled_clone_pss_bytes = 6e6;
  return cal;
}

fwsim::Co<void> DriveArrivals(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                              fwwork::LoadGen& gen, int count) {
  for (int i = 0; i < count; ++i) {
    const fwwork::Arrival a = gen.Next();
    const Duration wait = a.offset - (sim.Now() - SimTime::Zero());
    if (wait.nanos() > 0) {
      co_await fwsim::Delay(sim, wait);
    }
    (void)cluster.Submit(fwbase::StrFormat("app-%d", a.app), "{}");
  }
}

struct ClusterRun {
  uint64_t digest = 0;
  uint64_t completed = 0;
  std::vector<Profiler::ScopeTotals> top;
};

ClusterRun RunModelCluster(uint64_t seed, bool profiled, int invocations) {
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  if (profiled) {
    cluster.obs().profiler().Enable();
  }

  fwwork::LoadGenConfig lg;
  lg.arrival = fwwork::ArrivalProcess::kBursty;
  lg.rate_per_sec = 800.0;
  lg.num_apps = 8;
  lg.seed = seed;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(fwtest::RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  sim.Spawn(DriveArrivals(sim, cluster, gen, invocations));
  cluster.Drain(invocations);

  ClusterRun r;
  r.digest = cluster.OutcomeDigest();
  r.completed = cluster.ComputeRollup().completed;
  r.top = cluster.obs().profiler().TopN(10);
  return r;
}

TEST(ProfilerDeterminismTest, InstrumentedRunIsBitIdenticalToUninstrumented) {
  const ClusterRun plain = RunModelCluster(7, /*profiled=*/false, 2000);
  const ClusterRun profiled = RunModelCluster(7, /*profiled=*/true, 2000);
  EXPECT_EQ(plain.digest, profiled.digest);
  EXPECT_EQ(plain.completed, profiled.completed);

  // The observer actually observed: the acceptance criterion is at least
  // three hot scopes with attribution on at least one clock.
  EXPECT_TRUE(plain.top.empty());
  ASSERT_GE(profiled.top.size(), 3u);
  for (const auto& t : profiled.top) {
    EXPECT_GT(t.calls, 0u) << t.name;
    EXPECT_TRUE(t.sim_total_nanos > 0 || t.wall_total_nanos > 0) << t.name;
  }
}

}  // namespace
}  // namespace fwobs
