// Cluster-scale bench: scheduling policies under trace-driven load.
//
// Calibrates a ModelHost from full-fidelity probe runs (src/cluster/calibrate)
// for Fireworks and for the container/microVM/process baselines, then drives
// an N-host cluster with an open-loop seeded arrival stream (LoadGen) and
// reports P50/P99/P99.9 submit-to-completion latency plus cluster memory
// density per scheduling policy.
//
// The headline configuration — 32 hosts, 1M invocations, one shared
// deterministic simulation — finishes in about a minute of real time; the
// same seed replays bit-identically (the bench verifies this itself by
// running the headline policy twice and comparing outcome digests).
//
// Flags:
//   --hosts=N         simulated hosts                      (default 32)
//   --invocations=M   total requests                       (default 1000000)
//   --rate=R          mean cluster arrival rate, req/s     (default 8000)
//   --apps=K          Zipf-distributed app population      (default 64)
//   --arrival=NAME    poisson | bursty | diurnal | diurnal-flash
//                                                          (default bursty)
//   --policy=NAME     round-robin | least-loaded | snapshot-locality | all
//   --seed=S          simulation + load seed               (default 42)
//   --smoke           reduced scale for CI (8 hosts, 20k invocations, 4000
//                     req/s; explicit flags win in either order)
//   --no-baselines    skip the baseline-platform rows
//   --report=FILE     write one fwbench/1 report (scripts/bench_trend.py input)
//   --profile=PREFIX  profile the fireworks runs; writes PREFIX.collapsed
//                     (wall) + PREFIX.sim.collapsed (flamegraph input) and
//                     PREFIX.topn.txt, and prints the top-N table
//
// A malformed or out-of-range value exits 2 with a message naming the flag.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/common.h"
#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/workloads/loadgen.h"

namespace {

using fwbase::Duration;
using fwcluster::Cluster;
using fwcluster::HostCalibration;
using fwcluster::ModelHost;
using fwcluster::SchedulerPolicy;

struct Options {
  Options() {}
  int hosts = 32;
  uint64_t invocations = 1000000;
  double rate = 8000.0;
  int apps = 64;
  fwwork::ArrivalProcess arrival = fwwork::ArrivalProcess::kBursty;
  std::vector<SchedulerPolicy> policies = fwcluster::AllSchedulerPolicies();
  uint64_t seed = 42;
  bool baselines = true;
  std::string report_path;
  std::string profile_prefix;
};

struct RunResult {
  RunResult() {}
  std::string label;
  Cluster::Rollup rollup;
  uint64_t digest = 0;
  double sim_seconds = 0.0;
  uint64_t events = 0;  // Simulation events over the whole run.
  uint64_t allocs = 0;  // Heap allocations over the same span.
};

RunResult RunCluster(const std::string& label, SchedulerPolicy policy,
                     const HostCalibration& calibration, const Options& opt,
                     fwobs::Profiler* profile_into = nullptr) {
  const uint64_t allocs0 = fwbench::CurrentAllocCounts().allocs;
  fwsim::Simulation sim(opt.seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  hosts.reserve(opt.hosts);
  ModelHost::Config host_config;
  host_config.calibration = calibration;
  for (int i = 0; i < opt.hosts; ++i) {
    hosts.push_back(std::make_unique<ModelHost>(sim, i, host_config));
  }
  Cluster::Config config;
  config.policy = policy;
  Cluster cluster(sim, std::move(hosts), config);
  if (profile_into != nullptr) {
    cluster.obs().profiler().Enable();
  }

  fwwork::LoadGenConfig lg;
  lg.arrival = opt.arrival;
  lg.rate_per_sec = opt.rate;
  lg.num_apps = opt.apps;
  lg.seed = opt.seed;  // Same seed for every policy: identical workload.
  fwbench::RunLoad(sim, cluster, lg, opt.invocations);

  RunResult r;
  r.allocs = fwbench::CurrentAllocCounts().allocs - allocs0;
  r.label = label;
  r.rollup = cluster.ComputeRollup();
  r.digest = cluster.OutcomeDigest();
  r.sim_seconds = sim.Now().seconds();
  r.events = sim.events_processed();
  if (profile_into != nullptr) {
    profile_into->Merge(cluster.obs().profiler());
  }
  return r;
}

std::string Density(const Cluster::Rollup& r) {
  if (r.peak_pss_bytes <= 0.0) {
    return "n/a";
  }
  const double vms_per_gib =
      static_cast<double>(r.peak_live_vms) / (r.peak_pss_bytes / (1024.0 * 1024.0 * 1024.0));
  return fwbase::StrFormat("%.0f", vms_per_gib);
}

std::vector<std::string> ResultRow(const RunResult& r) {
  const auto& s = r.rollup.latency_ms;
  return {r.label,
          fwbase::StrFormat("%" PRIu64, r.rollup.completed),
          fwbase::StrFormat("%.2f", s.Percentile(50.0)),
          fwbase::StrFormat("%.2f", s.Percentile(99.0)),
          fwbase::StrFormat("%.2f", s.Percentile(99.9)),
          fwbase::StrFormat("%.0f%%", r.rollup.completed > 0
                                          ? 100.0 * static_cast<double>(r.rollup.warm_hits) /
                                                static_cast<double>(r.rollup.completed)
                                          : 0.0),
          fwbench::MiB(r.rollup.peak_pss_bytes),
          fwbase::StrFormat("%" PRIu64, r.rollup.peak_live_vms),
          Density(r.rollup)};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const fwbase::Status parsed = fwbench::ParseFlags(
      argc, argv,
      {fwbench::IntFlag("--hosts", &opt.hosts, 1),
       fwbench::U64Flag("--invocations", &opt.invocations, 1),
       fwbench::DoubleFlag("--rate", &opt.rate),
       fwbench::IntFlag("--apps", &opt.apps, 1),
       {"--arrival",
        [&opt](const std::string& name) {
          const auto arrival = fwwork::ParseArrivalProcess(name);
          if (!arrival.has_value()) {
            return fwbase::Status::InvalidArgument(
                "want poisson, bursty, diurnal or diurnal-flash");
          }
          opt.arrival = *arrival;
          return fwbase::Status::Ok();
        },
        nullptr},
       {"--policy",
        [&opt](const std::string& name) {
          if (name == "all") {
            opt.policies = fwcluster::AllSchedulerPolicies();
            return fwbase::Status::Ok();
          }
          const auto policy = fwcluster::ParseSchedulerPolicy(name);
          if (!policy.has_value()) {
            return fwbase::Status::InvalidArgument(
                "want round-robin, least-loaded, snapshot-locality or all");
          }
          opt.policies = {*policy};
          return fwbase::Status::Ok();
        },
        nullptr},
       fwbench::U64Flag("--seed", &opt.seed, 0),
       fwbench::SwitchFlag("--smoke",
                           [&opt] {
                             opt.hosts = 8;
                             opt.invocations = 20000;
                             opt.rate = 4000.0;
                           }),
       fwbench::SwitchFlag("--no-baselines", [&opt] { opt.baselines = false; }),
       fwbench::PathFlag("--report", &opt.report_path),
       fwbench::PathFlag("--profile", &opt.profile_prefix)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }

  std::printf("cluster_scale: %d hosts, %" PRIu64 " invocations, %.0f req/s, %s arrivals, "
              "%d apps, seed %" PRIu64 "\n\n",
              opt.hosts, opt.invocations, opt.rate,
              fwwork::ArrivalProcessName(opt.arrival), opt.apps, opt.seed);

  // Full-fidelity calibration probes (each on its own scratch simulation).
  const HostCalibration fw_cal = fwbench::Calibrate(fwbench::PlatformKind::kFireworks, opt.seed);
  fwbench::Table cal_table("host calibration (full-fidelity probes)",
                           {"platform", "cold startup", "warm startup", "exec",
                            "prepare", "inst PSS", "clone PSS"});
  auto cal_row = [&cal_table](const char* name, const HostCalibration& c) {
    cal_table.AddRow({name, fwbench::Ms(c.cold_startup), fwbench::Ms(c.warm_startup),
                      fwbench::Ms(c.cold_exec), fwbench::Ms(c.prepare_cost),
                      fwbench::MiB(c.instance_pss_bytes),
                      fwbench::MiB(c.pooled_clone_pss_bytes)});
  };
  cal_row("fireworks", fw_cal);

  std::vector<std::pair<std::string, HostCalibration>> baseline_cals;
  if (opt.baselines) {
    baseline_cals.emplace_back("openwhisk (container)",
                               fwbench::Calibrate(fwbench::PlatformKind::kOpenWhisk, opt.seed));
    baseline_cals.emplace_back("firecracker (microVM)",
                               fwbench::Calibrate(fwbench::PlatformKind::kFirecracker, opt.seed));
    for (const auto& [name, cal] : baseline_cals) {
      cal_row(name.c_str(), cal);
    }
  }
  cal_table.Print();
  std::printf("\n");

  // Profiling merges every fireworks run into one profile; it observes but
  // never perturbs the runs (the replay digest stays bit-identical).
  fwobs::Profiler merged_profile([] { return fwbase::SimTime(); });
  fwobs::Profiler* profile = opt.profile_prefix.empty() ? nullptr : &merged_profile;

  const fwbench::WallTimer wall;
  std::vector<RunResult> results;
  for (SchedulerPolicy policy : opt.policies) {
    const std::string label =
        std::string("fireworks/") + fwcluster::SchedulerPolicyName(policy);
    results.push_back(RunCluster(label, policy, fw_cal, opt, profile));
  }
  const double wall_seconds = wall.Seconds();
  for (const auto& [name, cal] : baseline_cals) {
    // Baselines have no snapshot to keep local; least-loaded is their best
    // placement policy.
    results.push_back(RunCluster(name, SchedulerPolicy::kLeastLoaded, cal, opt));
  }

  fwbench::Table table(
      fwbase::StrFormat("cluster latency + density (%" PRIu64 " invocations, %d hosts)",
                        opt.invocations, opt.hosts),
      {"configuration", "completed", "P50 ms", "P99 ms", "P99.9 ms", "warm%", "peak PSS",
       "peak VMs", "VMs/GiB"});
  for (const RunResult& r : results) {
    table.AddRow(ResultRow(r));
  }
  table.Print();
  std::printf("\n");

  // The first policy again, same seed.
  const RunResult& head = results[0];
  const auto replay = [&] { return RunCluster(head.label, opt.policies[0], fw_cal, opt).digest; };
  if (!fwbench::ReplayIsBitIdentical(opt.seed, "runs of " + head.label, head.digest, replay)) {
    return 1;
  }

  if (profile != nullptr) {
    std::printf("\nprofile (merged over %zu fireworks run%s):\n%s", results.size(),
                results.size() == 1 ? "" : "s",
                fwobs::ProfilerTopN(merged_profile, 10).c_str());
    fwbench::WriteFileOrDie(opt.profile_prefix + ".topn.txt",
                            fwobs::ProfilerTopN(merged_profile, 10));
    fwbench::WriteFileOrDie(opt.profile_prefix + ".collapsed",
                            fwobs::ProfilerCollapsed(merged_profile, fwobs::ProfileDim::kWall));
    fwbench::WriteFileOrDie(opt.profile_prefix + ".sim.collapsed",
                            fwobs::ProfilerCollapsed(merged_profile, fwobs::ProfileDim::kSim));
    std::printf("wrote %s.{topn.txt,collapsed,sim.collapsed} (collapsed-stack flamegraph "
                "input)\n", opt.profile_prefix.c_str());
  }

  if (!opt.report_path.empty()) {
    // The headline (first) fireworks policy gates the trajectory; baselines
    // and alternate policies are in the printed table only.
    const auto& lat = head.rollup.latency_ms;
    fwbench::BenchReport report("cluster_scale");
    report.AddConfig("hosts", opt.hosts);
    report.AddConfig("invocations", opt.invocations);
    report.AddConfig("rate_per_sec", opt.rate);
    report.AddConfig("apps", opt.apps);
    report.AddConfig("arrival", fwwork::ArrivalProcessName(opt.arrival));
    report.AddConfig("seed", opt.seed);
    report.AddConfig("policy", head.label);
    report.AddGuardedMetric("p50_ms", lat.Percentile(50.0), "lower");
    report.AddGuardedMetric("p99_ms", lat.Percentile(99.0), "lower");
    report.AddGuardedMetric("p999_ms", lat.Percentile(99.9), "lower");
    report.AddGuardedMetric("completed", static_cast<double>(head.rollup.completed), "higher");
    report.AddGuardedMetric("warm_hit_rate",
                            head.rollup.completed > 0
                                ? static_cast<double>(head.rollup.warm_hits) /
                                      static_cast<double>(head.rollup.completed)
                                : 0.0,
                            "higher");
    report.AddGuardedMetric("slo_attainment", head.rollup.slo_attainment, "higher");
    report.AddGuardedMetric("peak_pss_mib", head.rollup.peak_pss_bytes / (1024.0 * 1024.0),
                            "lower");
    // Exact costs of the simulator itself: deterministic per seed, so
    // unchanged code diffs at 0.0% and any growth is real.
    report.AddGuardedMetric("events_per_inv",
                            static_cast<double>(head.events) / static_cast<double>(opt.invocations),
                            "lower");
    report.AddGuardedMetric("allocs_per_inv",
                            static_cast<double>(head.allocs) / static_cast<double>(opt.invocations),
                            "lower");
    report.AddMetric("failed", static_cast<double>(head.rollup.failed));
    report.AddMetric("slo_alerts", static_cast<double>(head.rollup.slo_alerts));
    report.AddMetric("sim_seconds", head.sim_seconds);
    report.AddMetric("wall_seconds", wall_seconds);  // host-dependent: never guarded
    report.AddMetric("peak_rss_mib", fwbench::PeakRssMib());  // Likewise.
    report.SetDigest(head.digest);
    report.WriteTo(opt.report_path);
  }
  return 0;
}
