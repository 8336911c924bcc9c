// Registry cold-start bench: what the snapshot distribution tier buys.
//
// Drives the same trace-driven workload over an N-host ModelHost cluster
// (calibrated from a full-fidelity Fireworks probe) while sweeping the
// distribution tier's features cumulatively:
//
//   registry-only   monolithic images, no cache, no peers, no working set —
//                   every cold host pulls the full image from the registry
//   +cache          per-host byte-budgeted LRU chunk cache
//   +peer           peer-to-peer chunk fetch before the registry fallback
//   +layered        shared base runtime layer + small per-app post-JIT delta
//   +working-set    REAP-style working-set prefetch on first invocation
//
// The sweep uses the round-robin scheduler so every app goes cold on many
// hosts and the fetch path dominates; a final row re-runs the full
// configuration under the snapshot-locality scheduler to show placement
// recovering most of what the fetch tier had to pay for.
//
// The bench asserts its own acceptance criterion: the full configuration
// (+working-set) must beat registry-only on both mean latency and bytes
// pulled from the registry, and same-seed runs must be bit-identical.
//
// Flags:
//   --hosts=N        simulated hosts                     (default 8)
//   --invocations=M  total requests                      (default 4000)
//   --rate=R         mean cluster arrival rate, req/s    (default 1000)
//   --apps=K         Zipf-distributed app population     (default 24)
//   --seed=S         simulation + load seed              (default 42)
//   --smoke          reduced scale for CI (4 hosts, 600 invocations, 300
//                    req/s, 8 apps; explicit flags win in either order)
//   --report=FILE    write one fwbench/1 report (scripts/bench_trend.py input)
//
// A malformed or out-of-range value exits 2 with a message naming the flag.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/workloads/loadgen.h"

namespace {

using fwcluster::Cluster;
using fwcluster::DistributionConfig;
using fwcluster::DistributionStats;
using fwcluster::HostCalibration;
using fwcluster::ModelHost;
using fwcluster::SchedulerPolicy;

struct Options {
  Options() {}
  int hosts = 8;
  uint64_t invocations = 4000;
  double rate = 1000.0;
  int apps = 24;
  uint64_t seed = 42;
  std::string report_path;
};

struct Variant {
  std::string label;
  SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;
  DistributionConfig dist;
};

struct RunResult {
  RunResult() {}
  std::string label;
  Cluster::Rollup rollup;
  uint64_t digest = 0;
  double sim_seconds = 0.0;
};

// The cumulative feature sweep. Each step enables one more piece of the
// distribution tier on top of the previous step.
std::vector<Variant> MakeVariants() {
  DistributionConfig base;
  base.enabled = true;
  base.layered = false;
  base.cache_budget_bytes = 0;
  base.peer_fetch = false;
  base.working_set_restore = false;

  std::vector<Variant> variants;
  Variant v;
  v.label = "registry-only";
  v.dist = base;
  variants.push_back(v);

  v.label = "+cache";
  v.dist.cache_budget_bytes = 512ull << 20;
  variants.push_back(v);

  v.label = "+peer";
  v.dist.peer_fetch = true;
  variants.push_back(v);

  v.label = "+layered";
  v.dist.layered = true;
  variants.push_back(v);

  v.label = "+working-set";
  v.dist.working_set_restore = true;
  variants.push_back(v);

  // Same full configuration, but let the scheduler chase chunk placement.
  v.label = "+locality-sched";
  v.policy = SchedulerPolicy::kSnapshotLocality;
  variants.push_back(v);
  return variants;
}

RunResult RunVariant(const Variant& variant, const HostCalibration& calibration,
                     const Options& opt) {
  fwsim::Simulation sim(opt.seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  hosts.reserve(opt.hosts);
  ModelHost::Config host_config;
  host_config.calibration = calibration;
  for (int i = 0; i < opt.hosts; ++i) {
    hosts.push_back(std::make_unique<ModelHost>(sim, i, host_config));
  }
  Cluster::Config config;
  config.policy = variant.policy;
  config.distribution = variant.dist;
  Cluster cluster(sim, std::move(hosts), config);

  fwwork::LoadGenConfig lg;
  lg.arrival = fwwork::ArrivalProcess::kPoisson;
  lg.rate_per_sec = opt.rate;
  lg.num_apps = opt.apps;
  lg.seed = opt.seed;  // Same seed for every variant: identical workload.
  fwbench::RunLoad(sim, cluster, lg, opt.invocations);

  RunResult r;
  r.label = variant.label;
  r.rollup = cluster.ComputeRollup();
  r.digest = cluster.OutcomeDigest();
  r.sim_seconds = sim.Now().seconds();
  return r;
}

std::vector<std::string> ResultRow(const RunResult& r) {
  const auto& s = r.rollup.latency_ms;
  const DistributionStats& d = r.rollup.distribution;
  return {r.label,
          fwbase::StrFormat("%" PRIu64, r.rollup.completed),
          fwbase::StrFormat("%.2f", s.mean()),
          fwbase::StrFormat("%.2f", s.Percentile(99.0)),
          fwbase::StrFormat("%" PRIu64, d.cold_fetches),
          fwbench::MiB(static_cast<double>(d.bytes_from_registry)),
          fwbench::MiB(static_cast<double>(d.bytes_from_peer)),
          fwbench::MiB(static_cast<double>(d.bytes_from_cache)),
          fwbase::StrFormat("%" PRIu64, d.warm_restores),
          fwbase::StrFormat("%" PRIu64, d.demand_restores)};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const fwbase::Status parsed = fwbench::ParseFlags(
      argc, argv,
      {fwbench::IntFlag("--hosts", &opt.hosts, 2),  // Peer fetch needs a second host.
       fwbench::U64Flag("--invocations", &opt.invocations, 1),
       fwbench::DoubleFlag("--rate", &opt.rate),
       fwbench::IntFlag("--apps", &opt.apps, 1),
       fwbench::U64Flag("--seed", &opt.seed, 0),
       fwbench::SwitchFlag("--smoke",
                           [&opt] {
                             opt.hosts = 4;
                             opt.invocations = 600;
                             opt.rate = 300.0;
                             opt.apps = 8;
                           }),
       fwbench::PathFlag("--report", &opt.report_path)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }

  std::printf("registry_cold_start: %d hosts, %" PRIu64 " invocations, %.0f req/s, "
              "%d apps, seed %" PRIu64 "\n\n",
              opt.hosts, opt.invocations, opt.rate, opt.apps, opt.seed);

  // One full-fidelity calibration probe shared by every variant: the sweep
  // varies only the distribution tier, never the host model.
  const HostCalibration cal = fwbench::Calibrate(fwbench::PlatformKind::kFireworks, opt.seed);

  const fwbench::WallTimer wall;
  const std::vector<Variant> variants = MakeVariants();
  std::vector<RunResult> results;
  for (const Variant& v : variants) {
    results.push_back(RunVariant(v, cal, opt));
  }
  const double wall_seconds = wall.Seconds();

  fwbench::Table table(
      fwbase::StrFormat("cold-host snapshot distribution (%" PRIu64 " invocations, %d hosts, "
                        "%d apps)", opt.invocations, opt.hosts, opt.apps),
      {"configuration", "completed", "mean ms", "P99 ms", "cold pulls", "registry",
       "peer", "cache", "ws prefetch", "demand"});
  for (const RunResult& r : results) {
    table.AddRow(ResultRow(r));
  }
  table.Print();
  std::printf("\n");

  const RunResult& baseline = results[0];       // registry-only
  const RunResult& full = results[4];           // +working-set (same scheduler)
  const double latency_speedup =
      full.rollup.latency_ms.mean() > 0.0
          ? baseline.rollup.latency_ms.mean() / full.rollup.latency_ms.mean()
          : 0.0;
  const uint64_t baseline_pulled = baseline.rollup.distribution.bytes_from_registry;
  const uint64_t full_pulled = full.rollup.distribution.bytes_from_registry;
  std::printf("layered + working-set vs full-image pull: %.2fx mean latency, "
              "%s -> %s registry bytes\n",
              latency_speedup, fwbench::MiB(static_cast<double>(baseline_pulled)).c_str(),
              fwbench::MiB(static_cast<double>(full_pulled)).c_str());

  // Acceptance criterion (ISSUE 7): the layered + working-set configuration
  // must reduce both first-invocation latency and bytes transferred relative
  // to pulling the full image from the registry every time.
  bool ok = true;
  if (full.rollup.latency_ms.mean() >= baseline.rollup.latency_ms.mean()) {
    std::fprintf(stderr, "FAIL: +working-set mean latency (%.3f ms) does not beat "
                 "registry-only (%.3f ms)\n",
                 full.rollup.latency_ms.mean(), baseline.rollup.latency_ms.mean());
    ok = false;
  }
  if (full_pulled >= baseline_pulled) {
    std::fprintf(stderr, "FAIL: +working-set registry bytes (%" PRIu64 ") do not beat "
                 "registry-only (%" PRIu64 ")\n", full_pulled, baseline_pulled);
    ok = false;
  }
  if (full.rollup.completed < baseline.rollup.completed) {
    std::fprintf(stderr, "FAIL: +working-set completed fewer requests\n");
    ok = false;
  }

  // The full configuration again, same seed.
  const auto replay = [&] { return RunVariant(variants[4], cal, opt).digest; };
  if (!fwbench::ReplayIsBitIdentical(opt.seed, "runs of " + full.label, full.digest, replay)) {
    ok = false;
  }

  if (!opt.report_path.empty()) {
    // The full sweep configuration (+working-set, round-robin) gates the
    // trajectory; the other rows are in the printed table only.
    const auto& lat = full.rollup.latency_ms;
    const DistributionStats& d = full.rollup.distribution;
    fwbench::BenchReport report("registry_cold_start");
    report.AddConfig("hosts", opt.hosts);
    report.AddConfig("invocations", opt.invocations);
    report.AddConfig("rate_per_sec", opt.rate);
    report.AddConfig("apps", opt.apps);
    report.AddConfig("seed", opt.seed);
    report.AddConfig("variant", full.label);
    report.AddGuardedMetric("mean_ms", lat.mean(), "lower");
    report.AddGuardedMetric("p99_ms", lat.Percentile(99.0), "lower");
    report.AddGuardedMetric("completed", static_cast<double>(full.rollup.completed),
                            "higher");
    report.AddGuardedMetric("registry_mib",
                            static_cast<double>(d.bytes_from_registry) / (1024.0 * 1024.0),
                            "lower");
    report.AddGuardedMetric("latency_speedup_vs_full_pull", latency_speedup, "higher");
    report.AddMetric("cold_fetches", static_cast<double>(d.cold_fetches));
    report.AddMetric("coalesced", static_cast<double>(d.coalesced));
    report.AddMetric("peer_mib", static_cast<double>(d.bytes_from_peer) / (1024.0 * 1024.0));
    report.AddMetric("cache_mib", static_cast<double>(d.bytes_from_cache) / (1024.0 * 1024.0));
    report.AddMetric("warm_restores", static_cast<double>(d.warm_restores));
    report.AddMetric("sim_seconds", full.sim_seconds);
    report.AddMetric("wall_seconds", wall_seconds);  // host-dependent: never guarded
    report.SetDigest(full.digest);
    report.WriteTo(opt.report_path);
  }
  return ok ? 0 : 1;
}
