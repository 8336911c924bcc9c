// Golden-trace regression tests.
//
// Each test runs a fixed, seeded scenario with tracing enabled, renders the
// resulting span tree to text, and compares it line-by-line against a golden
// file checked in under tests/goldens/. Because spans record simulated time,
// the rendering is bit-stable: any diff means the timing model, the span
// structure, or the scheduling order actually changed.
//
// When a change is intentional, regenerate the goldens and review the diff
// like code:
//
//   FW_REGEN_GOLDENS=1 ctest --test-dir build -R golden_trace_test
//   git diff tests/goldens/
//
// The binary writes into the source tree via the FW_GOLDEN_DIR compile
// definition, so regeneration works from any build directory.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

#ifndef FW_GOLDEN_DIR
#define FW_GOLDEN_DIR "tests/goldens"
#endif

namespace {

using fwbase::Duration;
using fwtest::RunSync;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// Rendering + comparison machinery.
// ---------------------------------------------------------------------------

void RenderSpan(const fwobs::Tracer& tracer, const fwobs::Span& span, int depth,
                std::ostringstream& out) {
  out << std::string(static_cast<size_t>(depth) * 2, ' ');
  out << span.name();
  if (!span.category().empty()) {
    out << " [" << span.category() << "]";
  }
  out << fwbase::StrFormat(" t=%lldns dur=%lldns",
                           static_cast<long long>(span.start().nanos()),
                           static_cast<long long>(span.duration().nanos()));
  for (const auto& [key, value] : span.attributes()) {
    out << " " << key << "=" << value;
  }
  out << "\n";
  for (const fwobs::Span* child : tracer.ChildrenOf(span.id())) {
    RenderSpan(tracer, *child, depth + 1, out);
  }
}

std::string RenderTrace(const fwobs::Tracer& tracer) {
  std::ostringstream out;
  for (const fwobs::Span& span : tracer.spans()) {
    if (span.is_root()) {
      RenderSpan(tracer, span, 0, out);
    }
  }
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// Compares `actual` against the golden file, printing a readable line diff on
// mismatch. With FW_REGEN_GOLDENS=1 in the environment, rewrites the golden
// instead and passes.
void ExpectMatchesGolden(const std::string& golden_name, const std::string& actual) {
  const std::string path = std::string(FW_GOLDEN_DIR) + "/" + golden_name;
  if (std::getenv("FW_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden: " << path;
    out << actual;
    std::cout << "[regen] wrote " << path << " (" << SplitLines(actual).size()
              << " lines)\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; generate it with FW_REGEN_GOLDENS=1";
  std::ostringstream golden;
  golden << in.rdbuf();

  if (golden.str() == actual) {
    return;
  }
  const std::vector<std::string> want = SplitLines(golden.str());
  const std::vector<std::string> got = SplitLines(actual);
  std::ostringstream diff;
  diff << "trace diverges from " << path << " (golden " << want.size()
       << " lines, actual " << got.size() << " lines)\n";
  const size_t n = std::max(want.size(), got.size());
  int shown = 0;
  for (size_t i = 0; i < n && shown < 12; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w != nullptr && g != nullptr && *w == *g) {
      continue;
    }
    diff << "  line " << (i + 1) << ":\n";
    diff << "    golden: " << (w != nullptr ? *w : "<missing>") << "\n";
    diff << "    actual: " << (g != nullptr ? *g : "<missing>") << "\n";
    ++shown;
  }
  diff << "if this change is intentional: FW_REGEN_GOLDENS=1 ctest --test-dir "
          "build -R golden_trace_test && git diff tests/goldens/";
  ADD_FAILURE() << diff.str();
}

// ---------------------------------------------------------------------------
// Scenario 1: one Fireworks host — install, cold invoke, clone prepare, warm
// invoke. The golden pins the full span tree of the paper's §3 pipeline.
// ---------------------------------------------------------------------------

TEST(GoldenTrace, FireworksInvokePipeline) {
  fwcore::HostEnv env;  // Owns a seed-42 simulation: fixed scenario, fixed seed.
  env.obs().tracer().Enable();
  fwcore::FireworksPlatform platform(env);

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(
      RunSync(env.sim(), platform.Invoke(fn.name, "{}", fwcore::InvokeOptions())).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone(fn.name)).ok());
  ASSERT_TRUE(
      RunSync(env.sim(), platform.Invoke(fn.name, "{}", fwcore::InvokeOptions())).ok());

  ExpectMatchesGolden("fireworks_invoke_trace.golden",
                      RenderTrace(env.obs().tracer()));
}

// ---------------------------------------------------------------------------
// Scenario 2: a 2-host model cluster serving a fixed request schedule. The
// golden pins front-end placement (host attribute per request), retries, and
// per-invocation timing under the snapshot-locality policy.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveFixedSchedule(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  for (int i = 0; i < 8; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(25));
    (void)cluster.Submit(i % 2 == 0 ? "app-a" : "app-b", "{}");
  }
}

TEST(GoldenTrace, ClusterFixedSchedule) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
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

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  for (const char* app : {"app-a", "app-b"}) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = app;
    ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  sim.Spawn(DriveFixedSchedule(sim, cluster));
  cluster.Drain(8);

  std::string rendered = RenderTrace(cluster.obs().tracer());
  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  rendered += fwbase::StrFormat(
      "rollup completed=%llu failed=%llu retries=%llu warm_hits=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.failed),
      static_cast<unsigned long long>(rollup.retries),
      static_cast<unsigned long long>(rollup.warm_hits));
  ExpectMatchesGolden("cluster_fixed_schedule_trace.golden", rendered);
}


// ---------------------------------------------------------------------------
// Scenario 3: overload control on a deliberately starved 2-host cluster —
// one worker per host, queue capacity 1, five back-to-back submits. The
// golden pins a shed request (cluster.shed span + kResourceExhausted fast
// rejection) and a hedged request (cluster.hedge span, the hedge copy's
// invoke carrying hedge=1, and the surplus copy's discard) with exactly-once
// completions.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveOverloadBurst(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  for (int i = 0; i < 5; ++i) {
    (void)cluster.Submit("app-a", "{}");
    co_await fwsim::Delay(sim, Duration::Millis(1));
  }
}

TEST(GoldenTrace, ClusterShedAndHedge) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  fwcluster::HostCalibration cal;
  cal.cold_startup = Duration::Millis(1);
  cal.cold_exec = Duration::Millis(10);
  cal.warm_startup = Duration::Millis(1);
  cal.warm_exec = Duration::Millis(10);
  cal.jitter = 0.0;  // Phase timings in this golden are exact.

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.vcpus = 1;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  cc.workers_per_host = 1;
  cc.admission.queue_capacity = 1;
  cc.admission.default_deadline = Duration::Millis(50);
  cc.hedging = true;
  cc.hedge_min_delay = Duration::Millis(15);
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  sim.Spawn(DriveOverloadBurst(sim, cluster));
  cluster.Drain(5);
  sim.Run();  // Let surplus hedge copies drain through their discard path.

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  // The scenario must actually produce both behaviours the golden exists to
  // pin; if a scheduling change stops it doing so, fail loudly rather than
  // regenerating a golden that no longer covers them.
  ASSERT_GE(rollup.shed, 1u) << "scenario no longer sheds any request";
  ASSERT_GE(rollup.hedges, 1u) << "scenario no longer hedges any request";
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    ASSERT_LE(cluster.outcome(id).completions, 1u) << "request " << id;
  }

  std::string rendered = RenderTrace(cluster.obs().tracer());
  rendered += fwbase::StrFormat(
      "rollup completed=%llu failed=%llu shed=%llu hedges=%llu hedge_wins=%llu "
      "hedge_discards=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.failed),
      static_cast<unsigned long long>(rollup.shed),
      static_cast<unsigned long long>(rollup.hedges),
      static_cast<unsigned long long>(rollup.hedge_wins),
      static_cast<unsigned long long>(rollup.hedge_discards));
  ExpectMatchesGolden("cluster_shed_hedge_trace.golden", rendered);
}

// ---------------------------------------------------------------------------
// Scenario 4: the cold-host first-invocation path through the snapshot
// distribution tier. Two model hosts, one app published on its seed host,
// round-robin placement so the other host goes cold: the golden pins the
// full fetch pipeline — manifest fetch, chunk pull (peer-served), install,
// REAP working-set prefetch — and the invocation that follows it.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveColdPair(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  // Two spaced submits: round-robin lands one on each host, so exactly one
  // request pays the cold-host pull.
  for (int i = 0; i < 2; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(25));
    (void)cluster.Submit("app-a", "{}");
  }
}

TEST(GoldenTrace, ClusterColdHostRegistryPull) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  fwcluster::HostCalibration cal;
  cal.cold_startup = Duration::Millis(17);
  cal.cold_exec = Duration::Millis(3);
  cal.cold_others = Duration::Millis(1);
  cal.warm_startup = Duration::Micros(1600);
  cal.warm_exec = Duration::Millis(3);
  cal.warm_others = Duration::Micros(400);
  cal.prepare_cost = Duration::Millis(16);
  cal.jitter = 0.0;  // Phase timings in this golden are exact.

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, i, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kRoundRobin;
  cc.distribution.enabled = true;
  cc.distribution.base_layer_bytes = 4ull << 20;
  cc.distribution.delta_layer_bytes = 1ull << 20;
  cc.distribution.chunk_bytes = 1ull << 20;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  sim.Spawn(DriveColdPair(sim, cluster));
  cluster.Drain(2);

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  // The golden exists to pin the cold-fetch pipeline; if placement changes
  // stop the scenario exercising it, fail loudly instead of regenerating a
  // golden that no longer covers it.
  ASSERT_EQ(rollup.distribution.cold_fetches, 1u)
      << "scenario no longer pulls on a cold host";
  ASSERT_GE(rollup.distribution.warm_restores, 1u)
      << "scenario no longer performs a working-set prefetch";
  ASSERT_EQ(rollup.failed, 0u);

  std::string rendered = RenderTrace(cluster.obs().tracer());
  rendered += fwbase::StrFormat(
      "rollup completed=%llu cold_fetches=%llu chunks_from_peer=%llu "
      "chunks_from_registry=%llu warm_restores=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.distribution.cold_fetches),
      static_cast<unsigned long long>(rollup.distribution.chunks_from_peer),
      static_cast<unsigned long long>(rollup.distribution.chunks_from_registry),
      static_cast<unsigned long long>(rollup.distribution.warm_restores));
  ExpectMatchesGolden("cluster_cold_host_registry_trace.golden", rendered);
}

// ---------------------------------------------------------------------------
// Scenario 5: a cold host joining an elastic fleet (DESIGN.md §16). One
// seeded host serves steady traffic; AddHost() provisions a second, whose
// join warm-up must run the entire sequence the golden pins — registry chunk
// fetch, REAP working-set prefetch, guest reseed + clock rebase, warm-pool
// ready (fleet.admit) — strictly before its first dispatch, which is then a
// warm hit off the join-parked clone.
// ---------------------------------------------------------------------------

fwsim::Co<void> DriveJoinSchedule(fwsim::Simulation& sim, fwcluster::Cluster& cluster) {
  co_await fwsim::Delay(sim, Duration::Millis(25));
  (void)cluster.Submit("app-a", "{}");
  co_await fwsim::Delay(sim, Duration::Millis(25));
  (void)cluster.AddHost();
  // The join needs ~10 ms (manifest + chunks + prefetch + reseed + prepare);
  // by 400 ms the new host has long been admitted to the ring.
  co_await fwsim::Delay(sim, Duration::Millis(350));
  (void)cluster.Submit("app-a", "{}");
  co_await fwsim::Delay(sim, Duration::Millis(25));
  (void)cluster.Submit("app-a", "{}");
}

TEST(GoldenTrace, ClusterColdHostJoinWarmup) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  fwcluster::HostCalibration cal;
  cal.cold_startup = Duration::Millis(17);
  cal.cold_exec = Duration::Millis(3);
  cal.cold_others = Duration::Millis(1);
  cal.warm_startup = Duration::Micros(1600);
  cal.warm_exec = Duration::Millis(3);
  cal.warm_others = Duration::Micros(400);
  cal.prepare_cost = Duration::Millis(16);
  cal.jitter = 0.0;  // Phase timings in this golden are exact.

  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    hosts.push_back(std::make_unique<fwcluster::ModelHost>(sim, 0, mc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kRoundRobin;  // Joiner gets traffic.
  cc.autoscale = false;  // Only the join itself parks clones: a quiet golden.
  cc.distribution.enabled = true;
  cc.distribution.base_layer_bytes = 4ull << 20;
  cc.distribution.delta_layer_bytes = 1ull << 20;
  cc.distribution.chunk_bytes = 1ull << 20;
  cc.host_factory = [cal](fwsim::Simulation& s, int index) {
    fwcluster::ModelHost::Config mc;
    mc.calibration = cal;
    return std::make_unique<fwcluster::ModelHost>(s, index, mc);
  };
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  cluster.obs().tracer().Enable();

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  sim.Spawn(DriveJoinSchedule(sim, cluster));
  cluster.Drain(3);
  sim.Run();

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  ASSERT_EQ(rollup.hosts_added, 1u);
  ASSERT_EQ(cluster.lifecycle(1), fwcluster::HostLifecycle::kActive);
  ASSERT_EQ(rollup.failed, 0u);
  // The golden exists to pin the join pipeline; fail loudly if the scenario
  // stops exercising it rather than regenerating a hollow golden.
  ASSERT_EQ(rollup.distribution.cold_fetches, 1u)
      << "the joining host no longer pulls through the registry";
  ASSERT_GE(rollup.distribution.warm_restores, 1u)
      << "the joining host no longer runs the working-set prefetch";
  bool joiner_served_warm = false;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const fwcluster::Cluster::Outcome& out = cluster.outcome(id);
    if (out.host == 1) {
      joiner_served_warm = joiner_served_warm || out.warm_hit;
    }
  }
  ASSERT_TRUE(joiner_served_warm)
      << "the joiner's warm pool was not ready before its first dispatch";

  std::string rendered = RenderTrace(cluster.obs().tracer());
  rendered += fwbase::StrFormat(
      "rollup completed=%llu hosts_added=%llu cold_fetches=%llu "
      "warm_restores=%llu warm_hits=%llu\n",
      static_cast<unsigned long long>(rollup.completed),
      static_cast<unsigned long long>(rollup.hosts_added),
      static_cast<unsigned long long>(rollup.distribution.cold_fetches),
      static_cast<unsigned long long>(rollup.distribution.warm_restores),
      static_cast<unsigned long long>(rollup.warm_hits));
  ExpectMatchesGolden("cluster_join_warmup_trace.golden", rendered);
}

// ---------------------------------------------------------------------------
// Scenario 6: the front end's books. Two seeded ModelHost runs that between
// them move every Rollup counter off zero. The golden pins, per run, the
// outcome digest, every Rollup field, every non-zero counter and every gauge
// of the cluster registry, so a change to how the front end keeps its counts
// cannot move any reported number unnoticed. Doubles are printed with %.17g
// (round-trip exact).
// ---------------------------------------------------------------------------

std::string RenderStats(const char* name, const fwbase::SampleStats& s) {
  return fwbase::StrFormat("rollup.%s count=%lld mean=%.17g p50=%.17g p99=%.17g max=%.17g\n",
                           name, static_cast<long long>(s.count()), s.mean(),
                           s.Percentile(50.0), s.Percentile(99.0), s.max());
}

// Every non-zero counter and every gauge of `metrics`, in the registry's own
// (sorted) order. Keys come from the text dump; values are read back exactly.
std::string RenderRegistry(const fwobs::MetricsRegistry& metrics) {
  std::string out;
  std::istringstream dump(metrics.ToText());
  std::string line;
  while (std::getline(dump, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string key;
    fields >> kind >> key;
    const size_t brace = key.find('{');
    const std::string name = key.substr(0, brace);
    const std::string label =
        brace == std::string::npos ? std::string() : key.substr(brace + 1, key.size() - brace - 2);
    if (kind == "counter") {
      const uint64_t value = metrics.CounterValue(name, label);
      if (value != 0) {
        out += fwbase::StrFormat("counter %s %" PRIu64 "\n", key.c_str(), value);
      }
    } else if (kind == "gauge") {
      out += fwbase::StrFormat("gauge %s %.17g\n", key.c_str(), metrics.GaugeValue(name, label));
    }
  }
  return out;
}

// The Rollup's integer counters, by name (the assertion below wants each
// non-zero in at least one scenario).
std::vector<std::pair<const char*, uint64_t>> RollupCounters(
    const fwcluster::Cluster::Rollup& r) {
  return {{"submitted", r.submitted},
          {"completed", r.completed},
          {"failed", r.failed},
          {"retries", r.retries},
          {"zombie_discards", r.zombie_discards},
          {"warm_hits", r.warm_hits},
          {"shed", r.shed},
          {"expired", r.expired},
          {"retry_budget_denied", r.retry_budget_denied},
          {"hedges", r.hedges},
          {"hedge_wins", r.hedge_wins},
          {"hedge_discards", r.hedge_discards},
          {"suspects", r.suspects},
          {"detector_deaths", r.detector_deaths},
          {"reinstated", r.reinstated},
          {"brownout_discards", r.brownout_discards},
          {"peak_live_vms", r.peak_live_vms},
          {"slo_total", r.slo_total},
          {"slo_good", r.slo_good},
          {"slo_alerts", r.slo_alerts},
          {"hosts_added", r.hosts_added},
          {"hosts_removed", r.hosts_removed},
          {"zone_outages", r.zone_outages}};
}

std::string RenderBooks(const char* scenario, fwcluster::Cluster& cluster) {
  const fwcluster::Cluster::Rollup r = cluster.ComputeRollup();
  std::string out = fwbase::StrFormat("scenario %s\ndigest %016" PRIx64 "\n", scenario,
                                      cluster.OutcomeDigest());
  for (const auto& [name, value] : RollupCounters(r)) {
    out += fwbase::StrFormat("rollup.%s %" PRIu64 "\n", name, value);
  }
  out += RenderStats("latency_ms", r.latency_ms);
  out += RenderStats("startup_ms", r.startup_ms);
  out += fwbase::StrFormat("rollup.peak_pss_bytes %.17g\n", r.peak_pss_bytes);
  out += fwbase::StrFormat("rollup.slo_attainment %.17g\n", r.slo_attainment);
  out += fwbase::StrFormat("rollup.slo_worst_attainment %.17g\n", r.slo_worst_attainment);
  out += fwbase::StrFormat("rollup.host_hours %.17g\n", r.host_hours);
  const fwcluster::DistributionStats& d = r.distribution;
  const std::pair<const char*, uint64_t> distribution[] = {
      {"manifest_fetches", d.manifest_fetches},
      {"cold_fetches", d.cold_fetches},
      {"coalesced", d.coalesced},
      {"chunks_from_cache", d.chunks_from_cache},
      {"chunks_from_peer", d.chunks_from_peer},
      {"chunks_from_registry", d.chunks_from_registry},
      {"bytes_from_cache", d.bytes_from_cache},
      {"bytes_from_peer", d.bytes_from_peer},
      {"bytes_from_registry", d.bytes_from_registry},
      {"retries", d.retries},
      {"corrupt_chunks", d.corrupt_chunks},
      {"registry_unreachable", d.registry_unreachable},
      {"cold_boots", d.cold_boots},
      {"cache_evictions", d.cache_evictions},
      {"warm_restores", d.warm_restores},
      {"demand_restores", d.demand_restores},
      {"guest_reseeds", d.guest_reseeds}};
  for (const auto& [name, value] : distribution) {
    out += fwbase::StrFormat("rollup.distribution.%s %" PRIu64 "\n", name, value);
  }
  out += RenderRegistry(cluster.obs().metrics());
  return out;
}

fwcluster::HostCalibration BooksCalibration() {
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

std::unique_ptr<fwcluster::ClusterHost> MakeBooksHost(fwsim::Simulation& sim, int index) {
  fwcluster::ModelHost::Config mc;
  mc.vcpus = 4;
  mc.memory_bytes = 1.0 * (1ull << 30);
  mc.calibration = BooksCalibration();
  return std::make_unique<fwcluster::ModelHost>(sim, index, mc);
}

void InstallBooksApps(fwsim::Simulation& sim, fwcluster::Cluster& cluster, int num_apps) {
  for (int a = 0; a < num_apps; ++a) {
    fwlang::FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency,
                                                    fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("app-%d", a);
    ASSERT_TRUE(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
}

// Half the stream goes to the hot app-0, the rest rotates over the others.
// `burst` back-to-back hot submits with a generous deadline land at
// `burst_at`, so admission parks them on the hot app's host.
fwsim::Co<void> DriveBooksStream(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                 int count, Duration gap, int num_apps, int burst_at,
                                 int burst) {
  for (int i = 0; i < count; ++i) {
    if (i == burst_at) {
      for (int b = 0; b < burst; ++b) {
        (void)cluster.Submit("app-0", "{}", Duration::Seconds(1));
      }
    }
    const int app = i % 2 == 0 ? 0 : 1 + (i / 2) % (num_apps - 1);
    (void)cluster.Submit(fwbase::StrFormat("app-%d", app), "{}");
    co_await fwsim::Delay(sim, gap);
  }
}

// Crashes the hot app's host in the middle of its burst (its queued and
// in-flight copies of app-0 outnumber the app's retry budget) and restarts
// it a second later, then partitions another host for less than the
// detector's dead threshold.
fwsim::Co<void> BooksFaults(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                            Duration crash_at) {
  co_await fwsim::Delay(sim, crash_at);
  const int hot = cluster.outcome(1).host;
  cluster.CrashHost(hot);
  co_await fwsim::Delay(sim, Duration::Seconds(1));
  cluster.RestartHost(hot);
  co_await fwsim::Delay(sim, Duration::Millis(100));
  // Long enough to raise suspicion (~460 ms of silence at the default
  // heartbeat), too short to be declared dead (~1.8 s); heals mid-stream.
  cluster.PartitionHost((hot + 1) % cluster.num_hosts(), Duration::Millis(600));
}

std::string RunBooksFrontEnd(fwcluster::Cluster::Rollup* rollup) {
  fwsim::Simulation sim(42);  // Fixed seed: the golden depends on it.
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(MakeBooksHost(sim, i));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  cc.workers_per_host = 16;
  cc.admission.queue_capacity = 16;
  cc.admission.default_deadline = Duration::Millis(40);
  cc.hedging = true;
  cc.hedge_min_delay = Duration::Millis(15);
  cc.fault_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.03);
  cc.slow_host_mean_delay = Duration::Millis(60);
  cc.health.pressure_fraction = 0.1;
  cc.slo.target = Duration::Millis(30);
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 4;
  InstallBooksApps(sim, cluster, kApps);
  constexpr int kStream = 1500;
  constexpr int kBurst = 60;
  constexpr int kBurstAt = 500;
  const Duration gap = Duration::Millis(2);
  sim.Spawn(DriveBooksStream(sim, cluster, kStream, gap, kApps, kBurstAt, kBurst));
  sim.Spawn(BooksFaults(sim, cluster, gap * kBurstAt + Duration::Millis(3)));
  cluster.Drain(kStream + kBurst);
  *rollup = cluster.ComputeRollup();
  return RenderBooks("front_end", cluster);
}

std::string RunBooksFleet(fwcluster::Cluster::Rollup* rollup) {
  fwsim::Simulation sim(43);  // Fixed seed: the golden depends on it.
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(MakeBooksHost(sim, i));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 3;
  cc.host_factory = MakeBooksHost;
  cc.fleet.enabled = true;
  cc.fleet.interval = Duration::Millis(500);
  cc.fleet.min_hosts = 2;
  cc.fleet.max_hosts = 8;
  cc.fleet.host_capacity = 2;
  cc.fleet.scale_down_ticks = 2;
  cc.distribution.enabled = true;
  cc.distribution.base_layer_bytes = 4ull << 20;
  cc.distribution.delta_layer_bytes = 1ull << 20;
  cc.distribution.chunk_bytes = 1ull << 20;
  cc.fault_plan.Set(fwfault::FaultKind::kZoneOutage, 0.5, /*max_trips=*/2);
  cc.zone_outage_check_interval = Duration::Millis(700);
  cc.zone_outage_duration = Duration::Seconds(1);
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);
  constexpr int kApps = 6;
  InstallBooksApps(sim, cluster, kApps);
  // ~500 req/s for 3 s grows the fleet; a 1 req/s trickle then shrinks it.
  constexpr int kBurst = 1500;
  constexpr int kTrickle = 8;
  sim.Spawn(DriveBooksStream(sim, cluster, kBurst, Duration::Millis(2), kApps, -1, 0));
  sim.Spawn([](fwsim::Simulation& s, fwcluster::Cluster& c) -> fwsim::Co<void> {
    co_await fwsim::Delay(s, Duration::Seconds(4));
    for (int i = 0; i < kTrickle; ++i) {
      (void)c.Submit("app-1", "{}");
      co_await fwsim::Delay(s, Duration::Seconds(1));
    }
  }(sim, cluster));
  cluster.Drain(kBurst + kTrickle);
  *rollup = cluster.ComputeRollup();
  return RenderBooks("fleet", cluster);
}

TEST(GoldenTrace, ClusterBooks) {
  fwcluster::Cluster::Rollup front_end;
  fwcluster::Cluster::Rollup fleet;
  std::string rendered = RunBooksFrontEnd(&front_end);
  rendered += RunBooksFleet(&fleet);
  // The golden exists to pin every count the front end reports: fail loudly
  // if the scenarios stop moving one of them instead of pinning a zero.
  const auto a = RollupCounters(front_end);
  const auto b = RollupCounters(fleet);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].second != 0 || b[i].second != 0)
        << "no scenario moves rollup." << a[i].first;
  }
  ExpectMatchesGolden("cluster_books.golden", rendered);
}

// ---------------------------------------------------------------------------
// Scenario 7: one FullHost's books. A fixed seeded run on a snapshot store
// that fits two images, with unpinned snapshots and one injected checksum
// failure, so that every hypervisor, snapshot-store, frame and bus counter
// moves. The golden is the host registry's whole text dump: a change to how
// the host subsystems keep their counts cannot move any of them unnoticed.
// ---------------------------------------------------------------------------

TEST(GoldenTrace, HostBooks) {
  fwsim::Simulation sim(44);  // Fixed seed: the golden depends on it.
  fwcluster::FullHost::Config config;
  config.env.snapshot_store_bytes = 500 * fwbase::kMiB;  // Fits two images.
  config.env.fault_plan.Set(fwfault::FaultKind::kSnapshotCorruption, 1.0, /*max_trips=*/1);
  config.fw.pin_snapshots = false;
  fwcluster::FullHost host(sim, 0, config);

  std::vector<std::string> names;
  for (int i = 0; i < 3; ++i) {
    fwlang::FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs);
    fn.name = fwbase::StrFormat("fn-%d", i);
    ASSERT_TRUE(RunSync(sim, host.Install(fn)).ok()) << fn.name;
    names.push_back(fn.name);
  }
  const Duration deadline = Duration::Seconds(30);
  // The first restore trips the checksum failure and re-installs; the
  // evicted fn-0 degrades to a cold boot; the parked clone serves warm.
  ASSERT_TRUE(RunSync(sim, host.Invoke(names[2], "{}", deadline)).ok());
  ASSERT_TRUE(RunSync(sim, host.Invoke(names[0], "{}", deadline)).ok());
  ASSERT_TRUE(RunSync(sim, host.PrepareClone(names[2])).ok());
  ASSERT_TRUE(RunSync(sim, host.Invoke(names[2], "{}", deadline)).ok());
  ASSERT_EQ(host.warm_hits(), 1u);

  const fwobs::MetricsRegistry& metrics = host.env().metrics();
  // The golden exists to pin these counts: fail loudly if the scenario stops
  // moving one of them instead of pinning a zero.
  for (const char* name :
       {"hv.vm.create.count", "hv.vm.restore.count", "hv.snapshot.create.count",
        "store.snapshot.hit.count", "store.snapshot.miss.count", "store.snapshot.evict.count",
        "store.snapshot.save.count", "store.snapshot.corruption.count", "mem.frame.alloc.count",
        "bus.produce.count", "bus.consume.count"}) {
    EXPECT_NE(metrics.CounterValue(name), 0u) << "the scenario no longer moves " << name;
  }
  ExpectMatchesGolden("host_books.golden", metrics.ToText());
}

}  // namespace
