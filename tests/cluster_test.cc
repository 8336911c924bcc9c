// Property tests for the cluster layer: consistent-hash ring invariants,
// scheduler policies, load-generator statistics, autoscaler behaviour, and
// bit-identical replay of whole cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/cluster/admission.h"
#include "src/cluster/app_table.h"
#include "src/cluster/cluster.h"
#include "src/cluster/health.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/fault/fault.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/loadgen.h"
#include "tests/test_util.h"

namespace fwcluster {
namespace {

using fwbase::Duration;
using fwtest::RunSync;
using fwwork::ArrivalProcess;

std::vector<std::string> TestKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    keys.push_back(fwbase::StrFormat("app-%d", i));
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Consistent-hash ring.
// ---------------------------------------------------------------------------

TEST(ConsistentHashRingTest, JoinMovesKeysOnlyToTheNewHost) {
  constexpr int kHosts = 8;
  constexpr int kKeys = 2000;
  ConsistentHashRing ring(64);
  for (int h = 0; h < kHosts; ++h) {
    ring.AddHost(h);
  }
  const std::vector<std::string> keys = TestKeys(kKeys);
  std::map<std::string, int> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key);
  }

  ring.AddHost(kHosts);
  int moved = 0;
  for (const std::string& key : keys) {
    const int now = ring.Owner(key);
    if (now != before[key]) {
      // Every moved key must land on the new host — never shuffle between
      // existing hosts.
      EXPECT_EQ(now, kHosts) << key;
      ++moved;
    }
  }
  // Expect roughly kKeys/(kHosts+1) moves; allow generous slack for hash
  // variance, but a naive mod-N scheme (~kKeys * kHosts/(kHosts+1) moves)
  // must fail this bound.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 3 * kKeys / (kHosts + 1));
}

TEST(ConsistentHashRingTest, LeaveMovesOnlyTheLeavingHostsKeys) {
  constexpr int kHosts = 8;
  ConsistentHashRing ring(64);
  for (int h = 0; h < kHosts; ++h) {
    ring.AddHost(h);
  }
  const std::vector<std::string> keys = TestKeys(2000);
  std::map<std::string, int> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key);
  }

  constexpr int kLeaver = 3;
  ring.RemoveHost(kLeaver);
  EXPECT_FALSE(ring.Contains(kLeaver));
  for (const std::string& key : keys) {
    const int now = ring.Owner(key);
    if (before[key] == kLeaver) {
      EXPECT_NE(now, kLeaver) << key;
    } else {
      EXPECT_EQ(now, before[key]) << key;  // Unrelated keys must not move.
    }
  }
}

TEST(ConsistentHashRingTest, JoinThenLeaveRestoresOriginalOwnership) {
  ConsistentHashRing ring(64);
  for (int h = 0; h < 8; ++h) {
    ring.AddHost(h);
  }
  const std::vector<std::string> keys = TestKeys(500);
  std::map<std::string, int> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key);
  }
  ring.AddHost(8);
  ring.RemoveHost(8);
  for (const std::string& key : keys) {
    EXPECT_EQ(ring.Owner(key), before[key]) << key;
  }
}

TEST(ConsistentHashRingTest, OwnerIfSkipsDeadHosts) {
  ConsistentHashRing ring(64);
  for (int h = 0; h < 4; ++h) {
    ring.AddHost(h);
  }
  for (const std::string& key : TestKeys(200)) {
    const int owner = ring.Owner(key);
    const int fallback =
        ring.OwnerIf(key, [owner](int h) { return h != owner; });
    EXPECT_NE(fallback, owner) << key;
    EXPECT_GE(fallback, 0) << key;
    EXPECT_EQ(ring.OwnerIf(key, [](int) { return false; }), -1);
  }
}

// The ring as a std::map from point to host, as it was before the flat
// sorted vector: the reference the flat ring's walk order must match.
class MapRing {
 public:
  explicit MapRing(int vnodes_per_host) : vnodes_per_host_(vnodes_per_host) {}

  void AddHost(int host) {
    if (!members_.insert(host).second) {
      return;
    }
    for (int v = 0; v < vnodes_per_host_; ++v) {
      auto [it, inserted] = ring_.emplace(Point(host, v), host);
      if (!inserted) {
        it->second = std::min(it->second, host);
      }
    }
  }
  void RemoveHost(int host) {
    if (members_.erase(host) == 0) {
      return;
    }
    for (int v = 0; v < vnodes_per_host_; ++v) {
      auto it = ring_.find(Point(host, v));
      if (it != ring_.end() && it->second == host) {
        ring_.erase(it);
      }
    }
  }
  // Distinct hosts clockwise from `key`'s point.
  std::vector<int> WalkOrder(const std::string& key) const {
    std::vector<int> order;
    if (ring_.empty()) {
      return order;
    }
    std::set<int> seen;
    auto it = ring_.lower_bound(fwbase::HashKey(key));
    for (size_t step = 0; step < ring_.size(); ++step, ++it) {
      if (it == ring_.end()) {
        it = ring_.begin();
      }
      if (seen.insert(it->second).second) {
        order.push_back(it->second);
      }
    }
    return order;
  }

 private:
  static uint64_t Point(int host, int v) {
    return fwbase::HashKey(fwbase::StrFormat("host-%d-vnode-%d", host, v));
  }

  int vnodes_per_host_;
  std::map<uint64_t, int> ring_;
  std::set<int> members_;
};

TEST(ConsistentHashRingTest, FlatRingWalksInTheMapRingsOrder) {
  constexpr int kVnodes = 64;
  constexpr int kMaxHosts = 16;
  const std::vector<std::string> keys = TestKeys(1000);
  fwbase::Rng rng(7);
  ConsistentHashRing flat(kVnodes);
  MapRing reference(kVnodes);
  for (int op = 0; op < 40; ++op) {
    // Random joins and leaves; a join of a member and a leave of a
    // non-member are no-ops on both rings.
    const int host = static_cast<int>(rng.UniformU64(kMaxHosts));
    if (rng.Chance(0.6)) {
      flat.AddHost(host);
      reference.AddHost(host);
    } else {
      flat.RemoveHost(host);
      reference.RemoveHost(host);
    }
    for (const std::string& key : keys) {
      std::vector<int> order;
      flat.Walk(ConsistentHashRing::PointOf(key), [&order](int h) {
        order.push_back(h);
        return true;
      });
      ASSERT_EQ(order, reference.WalkOrder(key)) << "op " << op << ", key " << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler policies.
// ---------------------------------------------------------------------------

std::vector<HostView> MakeViews(int n) { return std::vector<HostView>(n); }

TEST(SchedulerTest, RoundRobinRotatesAndSkipsDead) {
  auto sched = MakeScheduler(SchedulerPolicy::kRoundRobin, 4);
  std::vector<HostView> views = MakeViews(4);
  views[1].alive = false;
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(sched->Pick("app", views));
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 2, 3, 0, 2, 3}));
}

TEST(SchedulerTest, LeastLoadedPicksArgminAndNeverPicksCrashed) {
  auto sched = MakeScheduler(SchedulerPolicy::kLeastLoaded, 5);
  std::vector<HostView> views = MakeViews(5);
  views[0].inflight = 7;
  views[1].inflight = 2;
  views[2].inflight = 1;
  views[2].alive = false;  // The least-loaded host is dead.
  views[3].inflight = 2;
  views[4].inflight = 9;
  // Argmin over the alive hosts, ties to the lowest index.
  EXPECT_EQ(sched->Pick("app", views), 1);
  // Sweep: whatever the load vector, a crashed host is never picked.
  fwbase::Rng rng(fwtest::PerTestSeed());
  for (int round = 0; round < 500; ++round) {
    for (auto& v : views) {
      v.inflight = static_cast<int64_t>(rng.UniformU64(20));
      v.alive = rng.UniformU64(4) != 0;
    }
    const int pick = sched->Pick("app", views);
    if (pick >= 0) {
      EXPECT_TRUE(views[pick].alive);
    }
  }
}

TEST(SchedulerTest, AllPoliciesReturnMinusOneWhenAllHostsDead) {
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    auto sched = MakeScheduler(policy, 3);
    std::vector<HostView> views = MakeViews(3);
    for (auto& v : views) {
      v.alive = false;
    }
    EXPECT_EQ(sched->Pick("app", views), -1) << SchedulerPolicyName(policy);
  }
}

TEST(SchedulerTest, SnapshotLocalityIsStickyPerApp) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 8);
  std::vector<HostView> views = MakeViews(8);
  std::set<int> hosts_used;
  for (const std::string& app : TestKeys(64)) {
    const int first = sched->Pick(app, views);
    ASSERT_GE(first, 0);
    hosts_used.insert(first);
    // An idle cluster never spills: the same app goes to the same host.
    EXPECT_EQ(sched->Pick(app, views), first) << app;
  }
  // 64 apps over 8 hosts must not all collapse onto a couple of hosts.
  EXPECT_GE(hosts_used.size(), 4u);
}

TEST(SchedulerTest, SnapshotLocalityCrashIsNotALeave) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 8);
  std::vector<HostView> views = MakeViews(8);
  const std::string app = "app-7";
  const int home = sched->Pick(app, views);
  ASSERT_GE(home, 0);

  views[home].alive = false;  // Crash the owner: spill somewhere else…
  const int spill = sched->Pick(app, views);
  ASSERT_GE(spill, 0);
  EXPECT_NE(spill, home);
  EXPECT_TRUE(views[spill].alive);

  views[home].alive = true;  // …and come home on restart (no ring change).
  EXPECT_EQ(sched->Pick(app, views), home);
}

TEST(SchedulerTest, SnapshotLocalitySpillsWhenOwnerIsSaturated) {
  auto sched = MakeScheduler(SchedulerPolicy::kSnapshotLocality, 8);
  std::vector<HostView> views = MakeViews(8);
  const std::string app = "app-0";
  const int home = sched->Pick(app, views);
  ASSERT_GE(home, 0);
  // Load the owner far above the bounded-load threshold (mean is ~12.5 here,
  // bound = 1.25 * mean + 8): the head app must spill to another host.
  for (auto& v : views) {
    v.inflight = 4;
  }
  views[home].inflight = 300;
  const int spill = sched->Pick(app, views);
  ASSERT_GE(spill, 0);
  EXPECT_NE(spill, home);
}

// ---------------------------------------------------------------------------
// Load generator.
// ---------------------------------------------------------------------------

TEST(LoadGenTest, OffsetsAreMonotoneNonDecreasing) {
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    fwwork::LoadGenConfig cfg;
    cfg.arrival = process;
    cfg.seed = fwtest::PerTestSeed();
    fwwork::LoadGen gen(cfg);
    Duration prev;
    for (int i = 0; i < 5000; ++i) {
      const fwwork::Arrival a = gen.Next();
      EXPECT_GE(a.offset.nanos(), prev.nanos());
      EXPECT_GE(a.app, 0);
      EXPECT_LT(a.app, cfg.num_apps);
      prev = a.offset;
    }
  }
}

TEST(LoadGenTest, LongRunMeanRateMatchesConfig) {
  // All three processes are normalised to the same long-run mean rate.
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    fwwork::LoadGenConfig cfg;
    cfg.arrival = process;
    cfg.rate_per_sec = 2000.0;
    // Shrink the modulation periods so the measurement window spans many
    // burst cycles / diurnal periods; otherwise the observed mean is
    // dominated by whichever phase the window happens to cover.
    cfg.mean_burst_seconds = 0.2;
    cfg.mean_calm_seconds = 1.8;
    cfg.diurnal_period_seconds = 5.0;
    cfg.seed = 7;
    fwwork::LoadGen gen(cfg);
    constexpr int kN = 200000;
    fwwork::Arrival last;
    for (int i = 0; i < kN; ++i) {
      last = gen.Next();
    }
    const double observed = kN / last.offset.seconds();
    EXPECT_NEAR(observed, cfg.rate_per_sec, 0.08 * cfg.rate_per_sec)
        << fwwork::ArrivalProcessName(process);
  }
}

TEST(LoadGenTest, ZipfPopularityIsSkewedAndNormalised) {
  fwwork::LoadGenConfig cfg;
  cfg.num_apps = 32;
  cfg.seed = fwtest::PerTestSeed();
  fwwork::LoadGen gen(cfg);
  double total = 0.0;
  for (int app = 0; app < cfg.num_apps; ++app) {
    total += gen.AppProbability(app);
    if (app > 0) {
      EXPECT_LE(gen.AppProbability(app), gen.AppProbability(app - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Empirical frequencies track the pmf for the head app.
  std::vector<int> counts(cfg.num_apps, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ++counts[gen.Next().app];
  }
  const double head = static_cast<double>(counts[0]) / kN;
  EXPECT_NEAR(head, gen.AppProbability(0), 0.02);
  EXPECT_GT(counts[0], counts[cfg.num_apps - 1]);
}

TEST(LoadGenTest, SameSeedReplaysIdentically) {
  fwwork::LoadGenConfig cfg;
  cfg.arrival = ArrivalProcess::kBursty;
  cfg.seed = 1234;
  fwwork::LoadGen a(cfg);
  fwwork::LoadGen b(cfg);
  bool any_difference_from_other_seed = false;
  cfg.seed = 1235;
  fwwork::LoadGen c(cfg);
  for (int i = 0; i < 10000; ++i) {
    const fwwork::Arrival aa = a.Next();
    const fwwork::Arrival bb = b.Next();
    const fwwork::Arrival cc = c.Next();
    ASSERT_EQ(aa.offset.nanos(), bb.offset.nanos());
    ASSERT_EQ(aa.app, bb.app);
    any_difference_from_other_seed |=
        aa.offset.nanos() != cc.offset.nanos() || aa.app != cc.app;
  }
  EXPECT_TRUE(any_difference_from_other_seed);
}

// ---------------------------------------------------------------------------
// Whole-cluster determinism + autoscaler (model hosts: fast enough for unit
// scale).
// ---------------------------------------------------------------------------

HostCalibration TestCalibration() {
  HostCalibration cal;
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

struct RunResult {
  uint64_t digest = 0;
  Cluster::Rollup rollup;
};

fwsim::Co<void> DriveArrivals(fwsim::Simulation& sim, Cluster& cluster,
                              fwwork::LoadGen& gen, int count) {
  for (int i = 0; i < count; ++i) {
    const fwwork::Arrival a = gen.Next();
    const Duration wait = a.offset - (sim.Now() - fwbase::SimTime::Zero());
    if (wait.nanos() > 0) {
      co_await fwsim::Delay(sim, wait);
    }
    (void)cluster.Submit(fwbase::StrFormat("app-%d", a.app), "{}");
  }
}

RunResult RunModelCluster(uint64_t seed, SchedulerPolicy policy, int invocations) {
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster::Config cc;
  cc.policy = policy;
  Cluster cluster(sim, std::move(hosts), cc);

  fwwork::LoadGenConfig lg;
  lg.arrival = ArrivalProcess::kBursty;
  lg.rate_per_sec = 800.0;
  lg.num_apps = 8;
  lg.seed = seed;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  sim.Spawn(DriveArrivals(sim, cluster, gen, invocations));
  cluster.Drain(invocations);

  RunResult r;
  r.digest = cluster.OutcomeDigest();
  r.rollup = cluster.ComputeRollup();
  return r;
}

TEST(ClusterDeterminismTest, SameSeedIsBitIdenticalAcrossPolicies) {
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    const RunResult a = RunModelCluster(99, policy, 2000);
    const RunResult b = RunModelCluster(99, policy, 2000);
    EXPECT_EQ(a.digest, b.digest) << SchedulerPolicyName(policy);
    EXPECT_EQ(a.rollup.completed, b.rollup.completed);
    EXPECT_EQ(a.rollup.warm_hits, b.rollup.warm_hits);
  }
}

TEST(ClusterDeterminismTest, DifferentSeedsDiverge) {
  const RunResult a = RunModelCluster(1, SchedulerPolicy::kLeastLoaded, 1000);
  const RunResult b = RunModelCluster(2, SchedulerPolicy::kLeastLoaded, 1000);
  EXPECT_NE(a.digest, b.digest);
}

TEST(ClusterAutoscalerTest, SustainedLoadProducesWarmHits) {
  const RunResult r = RunModelCluster(7, SchedulerPolicy::kSnapshotLocality, 4000);
  EXPECT_EQ(r.rollup.completed, 4000u);
  EXPECT_EQ(r.rollup.failed, 0u);
  // After the autoscaler's first ticks, the steady-state request stream
  // should be served overwhelmingly from parked clones.
  EXPECT_GT(r.rollup.warm_hits, r.rollup.completed / 2);
}

// ---------------------------------------------------------------------------
// ModelHost warm-pool accounting.
// ---------------------------------------------------------------------------

fwlang::FunctionSource NamedApp(const std::string& name) {
  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = name;
  return fn;
}

TEST(ModelHostPoolTest, PrepareInvokeDiscardAndDropKeepCounts) {
  fwsim::Simulation sim(5);
  ModelHost::Config mc;
  mc.calibration = TestCalibration();
  ModelHost host(sim, 0, mc);
  // Installing a name twice keeps one entry: one pool, one set of counts.
  ASSERT_TRUE(RunSync(sim, host.Install(NamedApp("app-a"))).ok());
  ASSERT_TRUE(RunSync(sim, host.Install(NamedApp("app-a"))).ok());
  ASSERT_TRUE(RunSync(sim, host.Install(NamedApp("app-b"))).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(RunSync(sim, host.PrepareClone("app-a")).ok());
  }
  ASSERT_TRUE(RunSync(sim, host.PrepareClone("app-b")).ok());
  EXPECT_EQ(host.PooledClones("app-a"), 3u);
  EXPECT_EQ(host.PooledClones("app-b"), 1u);
  EXPECT_EQ(host.TotalPooledClones(), 4u);
  EXPECT_EQ(host.LiveVmCount(), 4u);

  // A warm invoke consumes one parked clone; the pool claim is the warm hit.
  auto warm = RunSync(sim, host.Invoke("app-a", "{}", Duration::Zero()));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE((*warm).cold);
  EXPECT_EQ(host.warm_hits(), 1u);
  EXPECT_EQ(host.PooledClones("app-a"), 2u);
  EXPECT_EQ(host.TotalPooledClones(), 3u);

  // Discards drain the pool to zero; one more is NotFound and changes nothing.
  EXPECT_TRUE(host.DiscardClone("app-a").ok());
  EXPECT_TRUE(host.DiscardClone("app-a").ok());
  EXPECT_EQ(host.DiscardClone("app-a").code(), fwbase::StatusCode::kNotFound);
  EXPECT_EQ(host.PooledClones("app-a"), 0u);
  EXPECT_EQ(host.TotalPooledClones(), 1u);

  // An empty pool serves cold.
  auto cold = RunSync(sim, host.Invoke("app-a", "{}", Duration::Zero()));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE((*cold).cold);
  EXPECT_EQ(host.warm_hits(), 1u);

  // Dropping the pool zeroes every count, but the apps stay installed.
  ASSERT_TRUE(RunSync(sim, host.PrepareClone("app-a")).ok());
  host.DropWarmPool();
  EXPECT_EQ(host.PooledClones("app-a"), 0u);
  EXPECT_EQ(host.PooledClones("app-b"), 0u);
  EXPECT_EQ(host.TotalPooledClones(), 0u);
  EXPECT_EQ(host.LiveVmCount(), 0u);
  EXPECT_EQ(host.DiscardClone("app-b").code(), fwbase::StatusCode::kNotFound);
  ASSERT_TRUE(RunSync(sim, host.PrepareClone("app-b")).ok());
  EXPECT_EQ(host.PooledClones("app-b"), 1u);
  EXPECT_EQ(host.TotalPooledClones(), 1u);
}

TEST(ModelHostPoolTest, UninstalledNameIsNotFound) {
  fwsim::Simulation sim(5);
  ModelHost::Config mc;
  mc.calibration = TestCalibration();
  ModelHost host(sim, 0, mc);
  ASSERT_TRUE(RunSync(sim, host.Install(NamedApp("app-a"))).ok());
  auto invoked = RunSync(sim, host.Invoke("ghost", "{}", Duration::Zero()));
  EXPECT_EQ(invoked.status().code(), fwbase::StatusCode::kNotFound);
  EXPECT_EQ(RunSync(sim, host.PrepareClone("ghost")).code(), fwbase::StatusCode::kNotFound);
  EXPECT_EQ(host.DiscardClone("ghost").code(), fwbase::StatusCode::kNotFound);
  EXPECT_EQ(host.PooledClones("ghost"), 0u);
  EXPECT_EQ(host.TotalPooledClones(), 0u);
  EXPECT_EQ(host.warm_hits(), 0u);
  EXPECT_EQ(sim.Now(), fwbase::SimTime::Zero());  // Rejected before any work.
}

// A FullHost serves a parked clone through the platform's one invoke path:
// a clone whose guest crashes in exec is retried on a restored clone like
// any failed attempt, and the request it serves is no warm hit.
TEST(FullHostPoolTest, ParkedCloneCrashRecoversWithoutAWarmHit) {
  fwsim::Simulation sim(5);
  FullHost::Config config;
  config.env.fault_plan.Set(fwfault::FaultKind::kVmCrashDuringExec, 1.0, /*max_trips=*/1);
  FullHost host(sim, 0, config);
  ASSERT_TRUE(RunSync(sim, host.Install(NamedApp("app-a"))).ok());
  ASSERT_TRUE(RunSync(sim, host.PrepareClone("app-a")).ok());
  ASSERT_EQ(host.PooledClones("app-a"), 1u);

  auto r = RunSync(sim, host.Invoke("app-a", "{}", Duration::Seconds(30)));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r).attempts, 2);
  EXPECT_FALSE((*r).cold_boot_fallback);
  EXPECT_EQ(host.warm_hits(), 0u);
  EXPECT_EQ(host.TotalPooledClones(), 0u);
  EXPECT_EQ(host.LiveVmCount(), 0u);
}

// ---------------------------------------------------------------------------
// App ids: the interner, and a name no InstallAll installed.
// ---------------------------------------------------------------------------

TEST(AppTableTest, InterningIsDenseAndIdempotent) {
  AppTable apps;
  EXPECT_EQ(apps.size(), 0u);
  EXPECT_EQ(apps.Intern("app-b"), 0u);
  EXPECT_EQ(apps.Intern("app-a"), 1u);
  EXPECT_EQ(apps.Intern("app-b"), 0u);
  EXPECT_EQ(apps.Intern("app-c"), 2u);
  EXPECT_EQ(apps.size(), 3u);
  EXPECT_EQ(apps.name(0), "app-b");
  EXPECT_EQ(apps.name(1), "app-a");
  EXPECT_EQ(apps.name(2), "app-c");
}

TEST(AppTableTest, NameReferenceSurvivesLaterInterns) {
  AppTable apps;
  // Longer than the small-string buffer, so a moved string would dangle.
  const std::string long_name = "an-app-name-well-past-the-small-string-buffer";
  const std::string& held = apps.name(apps.Intern(long_name));
  const char* held_data = held.data();
  for (int i = 0; i < 1000; ++i) {
    (void)apps.Intern(fwbase::StrFormat("filler-app-%04d-with-a-long-suffix", i));
  }
  EXPECT_EQ(apps.size(), 1001u);
  EXPECT_EQ(held, long_name);
  EXPECT_EQ(held.data(), held_data);
  EXPECT_EQ(&apps.name(apps.Intern(long_name)), &held);
}

TEST(ClusterOutcomeLedgerTest, OutcomesSurviveLaterSubmitsPastAChunk) {
  fwsim::Simulation sim(23);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster cluster(sim, std::move(hosts), Cluster::Config());
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(NamedApp("app-0"))).ok());
  ASSERT_EQ(cluster.Submit("app-0", "{}"), 1u);
  // Held across every later Submit: the ledger must never move a record.
  const Cluster::Outcome& first = cluster.outcome(1);

  // The ledger grows in 4096-record chunks; go past the first one, at a
  // rate the two hosts serve without queueing or shedding.
  constexpr uint64_t kRequests = 4096 + 64;
  fwwork::LoadGenConfig lg;
  lg.rate_per_sec = 1000.0;
  lg.num_apps = 1;
  lg.seed = 23;
  fwwork::LoadGen gen(lg);
  sim.Spawn(DriveArrivals(sim, cluster, gen, static_cast<int>(kRequests - 1)));
  cluster.Drain(kRequests);
  ASSERT_EQ(cluster.submitted(), kRequests);

  EXPECT_EQ(&first, &cluster.outcome(1));
  EXPECT_TRUE(first.status.ok());
  EXPECT_EQ(first.completions, 1u);
  EXPECT_GE(first.host, 0);
  for (uint64_t id : {uint64_t{4095}, uint64_t{4096}, uint64_t{4097}, kRequests}) {
    const Cluster::Outcome& out = cluster.outcome(id);
    EXPECT_TRUE(out.status.ok()) << id << " " << out.status.ToString();
    EXPECT_EQ(out.completions, 1u) << id;
    EXPECT_EQ(out.attempts, 1) << id;
    EXPECT_GE(out.host, 0) << id;
    EXPECT_GT(out.latency.nanos(), 0) << id;
    EXPECT_EQ(cluster.app_name(out.app), "app-0") << id;
  }
}

TEST(ClusterGhostAppTest, NeverInstalledNameColdBootsThenFailsNotFound) {
  fwsim::Simulation sim(17);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster::Config cc;
  cc.distribution.enabled = true;
  Cluster cluster(sim, std::move(hosts), cc);
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(NamedApp("app-0"))).ok());
  const uint64_t ghost = cluster.Submit("ghost-app", "{}");
  const uint64_t real = cluster.Submit("app-0", "{}");
  cluster.DrainAll();

  // The distribution tier finds no manifest and boots the image from source;
  // the host then rejects the app it never installed. No retry: NotFound is
  // the platform's own verdict, not a host failure.
  const Cluster::Outcome& out = cluster.outcome(ghost);
  EXPECT_EQ(out.status.code(), fwbase::StatusCode::kNotFound);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.completions, 1u);
  // One manifest RPC (the fabric's registry round-trip, 120 us) plus
  // cold_boot_cost.
  EXPECT_EQ(out.latency.nanos(), 1'500'120'000);
  EXPECT_TRUE(cluster.outcome(real).status.ok());
  const Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.distribution.cold_boots, 1u);
  EXPECT_EQ(rollup.completed, 1u);
  EXPECT_EQ(rollup.failed, 1u);
}


// ---------------------------------------------------------------------------
// Failure detector (health.h).
// ---------------------------------------------------------------------------

TEST(FailureDetectorTest, SilenceDrivesSuspectThenDeadAtPhiThresholds) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  fwbase::SimTime t = fwbase::SimTime::Zero();
  for (int i = 0; i < 5; ++i) {
    t = t + hc.heartbeat_interval;
    EXPECT_EQ(fd.Heartbeat(0, t, 0.0), HealthTransition::kNone);
  }
  EXPECT_EQ(fd.state(0), HealthState::kAlive);

  const Duration to_suspect = fd.TimeToPhi(0, FailureDetector::kPhiSuspect);
  const Duration to_dead = fd.TimeToPhi(0, FailureDetector::kPhiDead);
  EXPECT_LT(to_suspect.nanos(), to_dead.nanos());
  EXPECT_EQ(fd.Evaluate(0, t + to_suspect - Duration::Millis(1)), HealthTransition::kNone);
  EXPECT_EQ(fd.Evaluate(0, t + to_suspect + Duration::Millis(1)),
            HealthTransition::kSuspected);
  EXPECT_EQ(fd.state(0), HealthState::kSuspect);
  // Idempotent between new evidence: re-evaluating does not re-announce.
  EXPECT_EQ(fd.Evaluate(0, t + to_suspect + Duration::Millis(2)), HealthTransition::kNone);
  EXPECT_EQ(fd.Evaluate(0, t + to_dead + Duration::Millis(1)), HealthTransition::kDied);
  EXPECT_EQ(fd.state(0), HealthState::kDead);
  EXPECT_EQ(fd.Evaluate(0, t + to_dead + Duration::Seconds(10)), HealthTransition::kNone);
}

TEST(FailureDetectorTest, PhiGrowsWithSilence) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  const double early = fd.Phi(0, fwbase::SimTime::Zero() + Duration::Millis(50));
  const double late = fd.Phi(0, fwbase::SimTime::Zero() + Duration::Millis(500));
  EXPECT_LT(early, late);
}

TEST(FailureDetectorTest, HeartbeatReinstatesSuspectAndDead) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  const Duration to_suspect = fd.TimeToPhi(0, FailureDetector::kPhiSuspect);
  fwbase::SimTime t = fwbase::SimTime::Zero() + to_suspect + Duration::Millis(1);
  EXPECT_EQ(fd.Evaluate(0, t), HealthTransition::kSuspected);
  EXPECT_EQ(fd.Heartbeat(0, t + Duration::Millis(1), 0.0), HealthTransition::kReinstated);
  EXPECT_EQ(fd.state(0), HealthState::kAlive);

  EXPECT_EQ(fd.ReportFailure(0), HealthTransition::kDied);
  EXPECT_EQ(fd.state(0), HealthState::kDead);
  EXPECT_EQ(fd.Heartbeat(0, t + Duration::Seconds(30), 0.0), HealthTransition::kReinstated);
  EXPECT_EQ(fd.state(0), HealthState::kAlive);
}

TEST(FailureDetectorTest, ReportFailureIsImmediateAndIdempotent) {
  HealthConfig hc;
  FailureDetector fd(2, hc, fwbase::SimTime::Zero());
  EXPECT_EQ(fd.ReportFailure(0), HealthTransition::kDied);
  EXPECT_EQ(fd.ReportFailure(0), HealthTransition::kNone);
  EXPECT_EQ(fd.state(0), HealthState::kDead);
  EXPECT_EQ(fd.state(1), HealthState::kAlive);
}

TEST(FailureDetectorTest, DowntimeGapIsNotAnIntervalSample) {
  HealthConfig hc;
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  fwbase::SimTime t = fwbase::SimTime::Zero();
  for (int i = 0; i < 10; ++i) {
    t = t + hc.heartbeat_interval;
    fd.Heartbeat(0, t, 0.0);
  }
  const Duration before = fd.TimeToPhi(0, FailureDetector::kPhiDead);

  // Death, 30s of downtime, then a reinstating heartbeat: the 30s gap must
  // not be folded into the interval EWMA (it was downtime, not lateness).
  fd.ReportFailure(0);
  t = t + Duration::Seconds(30);
  EXPECT_EQ(fd.Heartbeat(0, t, 0.0), HealthTransition::kReinstated);
  EXPECT_EQ(fd.TimeToPhi(0, FailureDetector::kPhiDead).nanos(), before.nanos());
}

TEST(FailureDetectorTest, PressureTracksHeartbeatPayload) {
  HealthConfig hc;  // pressure_fraction = 0.9
  FailureDetector fd(1, hc, fwbase::SimTime::Zero());
  EXPECT_FALSE(fd.pressured(0));
  fd.Heartbeat(0, fwbase::SimTime::Zero() + Duration::Millis(100), 0.95);
  EXPECT_TRUE(fd.pressured(0));
  EXPECT_DOUBLE_EQ(fd.pss_fraction(0), 0.95);
  fd.Heartbeat(0, fwbase::SimTime::Zero() + Duration::Millis(200), 0.5);
  EXPECT_FALSE(fd.pressured(0));
}

// ---------------------------------------------------------------------------
// Admission control + retry budget (admission.h).
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, ShedsAtQueueCapacity) {
  AdmissionConfig ac;
  ac.queue_capacity = 2;
  AdmissionController adm(1, 4, ac);
  const fwbase::SimTime now = fwbase::SimTime::Zero();
  EXPECT_TRUE(adm.Admit(0, 1, now, fwbase::SimTime::Max()).ok());
  const Status s = adm.Admit(0, 2, now, fwbase::SimTime::Max());
  EXPECT_EQ(s.code(), fwbase::StatusCode::kResourceExhausted);
}

TEST(AdmissionControllerTest, ShedsWhenEstimatedWaitExceedsDeadline) {
  AdmissionConfig ac;  // initial service estimate 5ms
  ac.queue_capacity = 1000;
  AdmissionController adm(1, /*workers_per_host=*/1, ac);
  const fwbase::SimTime now = fwbase::SimTime::Zero();
  // Ten queued requests at ~5ms each on one worker: ~50ms of wait.
  EXPECT_EQ(adm.EstimatedWait(0, 10).nanos(), Duration::Millis(50).nanos());
  EXPECT_EQ(adm.Admit(0, 10, now, now + Duration::Millis(20)).code(),
            fwbase::StatusCode::kResourceExhausted);
  EXPECT_TRUE(adm.Admit(0, 10, now, now + Duration::Millis(100)).ok());
  // No deadline: only the hard cap sheds.
  EXPECT_TRUE(adm.Admit(0, 10, now, fwbase::SimTime::Max()).ok());
}

TEST(AdmissionControllerTest, ServiceEwmaTracksObservedTimes) {
  AdmissionConfig ac;
  AdmissionController adm(2, 1, ac);
  const Duration before = adm.EstimatedWait(0, 4);
  for (int i = 0; i < 20; ++i) {
    adm.RecordService(0, Duration::Millis(1));
  }
  EXPECT_LT(adm.EstimatedWait(0, 4).nanos(), before.nanos());
  // Per-host estimates are independent.
  EXPECT_EQ(adm.EstimatedWait(1, 4).nanos(), before.nanos());
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionConfig ac;
  ac.enabled = false;
  ac.queue_capacity = 1;
  AdmissionController adm(1, 1, ac);
  const fwbase::SimTime now = fwbase::SimTime::Zero();
  EXPECT_TRUE(adm.Admit(0, 1000, now, now + Duration::Millis(1)).ok());
}

TEST(RetryBudgetTest, ClampsRetriesAndRefillsOnAcceptedWork) {
  // 0.25 is exact in binary, so four deposits make exactly one token.
  RetryBudget budget(true, /*deposit_ratio=*/0.25, /*burst=*/2.0);
  const AppId app_a = 0;
  const AppId app_b = 1;
  // Buckets start at burst: two retries fit, the third is denied.
  EXPECT_TRUE(budget.TrySpend(app_a));
  EXPECT_TRUE(budget.TrySpend(app_a));
  EXPECT_FALSE(budget.TrySpend(app_a));
  // Budgets are per app.
  EXPECT_TRUE(budget.TrySpend(app_b));
  // Four accepted first attempts deposit one token.
  for (int i = 0; i < 4; ++i) {
    budget.OnAccepted(app_a);
  }
  EXPECT_TRUE(budget.TrySpend(app_a));
  EXPECT_FALSE(budget.TrySpend(app_a));
}

TEST(RetryBudgetTest, FirstDepositOnAFreshBucketIsCappedAtBurst) {
  RetryBudget budget(true, /*deposit_ratio=*/0.5, /*burst=*/2.0);
  // An id far past every bucket seen so far starts full, like any other.
  budget.OnAccepted(7);
  EXPECT_TRUE(budget.TrySpend(7));
  EXPECT_TRUE(budget.TrySpend(7));
  EXPECT_FALSE(budget.TrySpend(7));
}

TEST(RetryBudgetTest, DisabledBudgetAdmitsEveryRetry) {
  RetryBudget budget(false, 0.1, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(budget.TrySpend(0));
  }
}

// ---------------------------------------------------------------------------
// Hedging: tail shaving with exactly-once completions.
// ---------------------------------------------------------------------------

RunResult RunHedgedCluster(uint64_t seed, bool hedging) {
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, i, mc));
  }
  Cluster::Config cc;
  cc.policy = SchedulerPolicy::kLeastLoaded;
  cc.hedging = hedging;
  cc.hedge_min_delay = Duration::Millis(15);
  // Gray failure: 2% of invocations stall for ~200ms — exactly the tail
  // hedging exists to shave.
  cc.fault_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.02);
  cc.fault_seed = seed;
  cc.slow_host_mean_delay = Duration::Millis(200);
  Cluster cluster(sim, std::move(hosts), cc);

  fwwork::LoadGenConfig lg;
  lg.arrival = ArrivalProcess::kPoisson;
  lg.rate_per_sec = 400.0;
  lg.num_apps = 4;
  lg.seed = seed;
  fwwork::LoadGen gen(lg);
  for (int a = 0; a < lg.num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  constexpr int kInvocations = 1500;
  sim.Spawn(DriveArrivals(sim, cluster, gen, kInvocations));
  cluster.Drain(kInvocations);

  RunResult r;
  r.digest = cluster.OutcomeDigest();
  r.rollup = cluster.ComputeRollup();
  // Exactly-once: every terminal request has exactly one recorded completion,
  // hedges or not.
  for (uint64_t id = 1; id <= r.rollup.submitted; ++id) {
    FW_CHECK(cluster.outcome(id).completions == 1);
  }
  return r;
}

TEST(ClusterHedgingTest, HedgesFireAndCompletionsStayExactlyOnce) {
  const RunResult r = RunHedgedCluster(11, /*hedging=*/true);
  EXPECT_EQ(r.rollup.completed, 1500u);
  EXPECT_EQ(r.rollup.failed, 0u);
  EXPECT_GT(r.rollup.hedges, 0u);
  EXPECT_LE(r.rollup.hedge_wins, r.rollup.hedges);
  // Each hedge dispatch makes a pair with exactly one surplus copy: the
  // hedge when the primary wins, the primary when the hedge wins. Either
  // way the surplus is discarded by the terminal check (at most one pair —
  // the very last — can still be in flight when Drain stops pumping).
  EXPECT_GE(r.rollup.hedge_discards + 1, r.rollup.hedges);
  EXPECT_LE(r.rollup.hedge_discards, r.rollup.hedges);
}

TEST(ClusterHedgingTest, HedgingIsDeterministic) {
  const RunResult a = RunHedgedCluster(23, /*hedging=*/true);
  const RunResult b = RunHedgedCluster(23, /*hedging=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rollup.hedges, b.rollup.hedges);
  EXPECT_EQ(a.rollup.hedge_wins, b.rollup.hedge_wins);
}

TEST(ClusterHedgingTest, HedgingShavesTheSlowHostTail) {
  const RunResult off = RunHedgedCluster(31, /*hedging=*/false);
  const RunResult on = RunHedgedCluster(31, /*hedging=*/true);
  EXPECT_EQ(on.rollup.completed, off.rollup.completed);
  EXPECT_LT(on.rollup.latency_ms.Percentile(99.9), off.rollup.latency_ms.Percentile(99.9));
}

// ---------------------------------------------------------------------------
// Drain guard.
// ---------------------------------------------------------------------------

TEST(ClusterDrainDeathTest, DrainBeyondWorkloadAbortsInsteadOfSpinning) {
  auto impossible_drain = [] {
    fwsim::Simulation sim(1);
    std::vector<std::unique_ptr<ClusterHost>> hosts;
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, 0, mc));
    Cluster::Config cc;
    cc.drain_stall_timeout = Duration::Seconds(2);
    Cluster cluster(sim, std::move(hosts), cc);
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = "app-0";
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
    (void)cluster.Submit("app-0", "{}");
    cluster.Drain(5);  // Only 1 request will ever exist.
  };
  EXPECT_DEATH(impossible_drain(), "stalled");
}

// The stall guard's boundary: progress landing at *exactly*
// drain_stall_timeout after the last progress must not abort (the comparison
// is strict), so the guard can never fire one tick early.
TEST(ClusterDrainDeathTest, ProgressAtExactlyTheStallTimeoutDoesNotAbort) {
  fwsim::Simulation sim(2);
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  ModelHost::Config mc;
  mc.calibration = TestCalibration();
  hosts.push_back(std::make_unique<ModelHost>(sim, 0, mc));
  Cluster::Config cc;
  cc.drain_stall_timeout = Duration::Seconds(2);
  Cluster cluster(sim, std::move(hosts), cc);
  fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                  fwlang::Language::kNodeJs);
  fn.name = "app-0";
  FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  (void)cluster.Submit("app-0", "{}");
  while (cluster.terminal() < 1) {
    FW_CHECK(sim.StepOne());
  }
  const fwbase::SimTime last_progress = sim.Now();
  // The next submission arrives exactly drain_stall_timeout later — the
  // heartbeat/sampler events in between never reset the progress clock, so
  // this is the latest instant at which Drain may still accept progress.
  sim.Spawn([](fwsim::Simulation& s, Cluster& c, Duration gap) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, gap);
    (void)c.Submit("app-0", "{}");
  }(sim, cluster, cc.drain_stall_timeout));
  cluster.Drain(2);  // Aborts the test (FW_CHECK) if the guard fires early.
  EXPECT_EQ(cluster.terminal(), 2u);
  EXPECT_GE(sim.Now() - last_progress, cc.drain_stall_timeout);
}

// …and progress at the boundary restarts the window: the abort then fires
// only once a *full further* timeout elapses, with the bookkeeping showing
// both requests were accepted before the guard tripped.
TEST(ClusterDrainDeathTest, BoundaryProgressRestartsTheStallWindow) {
  auto drain_past_reset = [] {
    fwsim::Simulation sim(3);
    std::vector<std::unique_ptr<ClusterHost>> hosts;
    ModelHost::Config mc;
    mc.calibration = TestCalibration();
    hosts.push_back(std::make_unique<ModelHost>(sim, 0, mc));
    Cluster::Config cc;
    cc.drain_stall_timeout = Duration::Seconds(2);
    Cluster cluster(sim, std::move(hosts), cc);
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = "app-0";
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
    (void)cluster.Submit("app-0", "{}");
    while (cluster.terminal() < 1) {
      FW_CHECK(sim.StepOne());
    }
    sim.Spawn([](fwsim::Simulation& s, Cluster& c, Duration gap) -> fwsim::Co<void> {
      co_await fwsim::Delay(s, gap);
      (void)c.Submit("app-0", "{}");
    }(sim, cluster, cc.drain_stall_timeout));
    cluster.Drain(3);  // A third request never arrives.
  };
  // "2 submitted, 2 terminal" proves the boundary submission was accepted
  // (no early abort) and the guard fired a configured timeout after it.
  EXPECT_DEATH(drain_past_reset(),
               "Drain\\(3\\) stalled: 2 submitted, 2 terminal, and no progress for 2s");
}

}  // namespace
}  // namespace fwcluster
