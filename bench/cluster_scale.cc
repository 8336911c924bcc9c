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
//   --arrival=NAME    poisson | bursty | diurnal           (default bursty)
//   --policy=NAME     round-robin | least-loaded | snapshot-locality | all
//   --seed=S          simulation + load seed               (default 42)
//   --smoke           reduced scale for CI (8 hosts, 20k invocations)
//   --no-baselines    skip the baseline-platform rows
//   --no-selfcheck    skip the determinism re-run
//   --json=FILE       write machine-readable results
//   --report=FILE     write one fwbench/1 report (scripts/bench_trend.py input)
//   --profile=PREFIX  profile the fireworks runs; writes PREFIX.collapsed
//                     (wall) + PREFIX.sim.collapsed (flamegraph input) and
//                     PREFIX.topn.txt, and prints the top-N table
#include <chrono>  // host wall time for the report
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/cluster/calibrate.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/workloads/faasdom.h"
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
  std::string policy = "all";
  uint64_t seed = 42;
  bool baselines = true;
  bool selfcheck = true;
  std::string json_path;
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
};

std::vector<std::string> AppNames(int apps) {
  std::vector<std::string> names;
  names.reserve(apps);
  for (int i = 0; i < apps; ++i) {
    names.push_back(fwbase::StrFormat("app-%03d", i));
  }
  return names;
}

fwsim::Co<void> DriveLoad(fwsim::Simulation& sim, Cluster& cluster,
                          fwwork::LoadGenConfig lg_config, uint64_t count,
                          std::vector<std::string> app_names) {
  fwwork::LoadGen gen(lg_config);
  const fwbase::SimTime start = sim.Now();
  for (uint64_t i = 0; i < count; ++i) {
    const fwwork::Arrival a = gen.Next();
    const fwbase::SimTime due = start + a.offset;
    if (due > sim.Now()) {
      co_await fwsim::Delay(sim, due - sim.Now());
    }
    (void)cluster.Submit(app_names[a.app], "payload");
  }
}

RunResult RunCluster(const std::string& label, SchedulerPolicy policy,
                     const HostCalibration& calibration, const Options& opt,
                     fwobs::Profiler* profile_into = nullptr) {
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

  const std::vector<std::string> app_names = AppNames(opt.apps);
  for (const std::string& name : app_names) {
    fwlang::FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = name;
    const fwbase::Status s = fwsim::RunSync(sim, cluster.InstallAll(fn));
    FW_CHECK_MSG(s.ok(), s.ToString().c_str());
  }

  fwwork::LoadGenConfig lg;
  lg.arrival = opt.arrival;
  lg.rate_per_sec = opt.rate;
  lg.num_apps = opt.apps;
  lg.seed = opt.seed;  // Same seed for every policy: identical workload.
  sim.Spawn(DriveLoad(sim, cluster, lg, opt.invocations, app_names));
  cluster.Drain(opt.invocations);

  RunResult r;
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

void WriteJson(const std::string& path, const Options& opt,
               const std::vector<RunResult>& results, bool selfcheck_ran,
               bool selfcheck_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"hosts\": %d, \"invocations\": %" PRIu64
               ", \"rate_per_sec\": %.1f, \"apps\": %d, \"arrival\": \"%s\", \"seed\": "
               "%" PRIu64 "},\n",
               opt.hosts, opt.invocations, opt.rate, opt.apps,
               fwwork::ArrivalProcessName(opt.arrival), opt.seed);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const auto& s = r.rollup.latency_ms;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"completed\": %" PRIu64 ", \"failed\": %" PRIu64
                 ", \"retries\": %" PRIu64
                 ", \"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, \"mean_ms\": "
                 "%.4f, \"warm_hits\": %" PRIu64
                 ", \"peak_pss_bytes\": %.0f, \"peak_live_vms\": %" PRIu64
                 ", \"sim_seconds\": %.3f, \"digest\": \"%016" PRIx64 "\"}%s\n",
                 r.label.c_str(), r.rollup.completed, r.rollup.failed, r.rollup.retries,
                 s.Percentile(50.0), s.Percentile(99.0), s.Percentile(99.9), s.mean(),
                 r.rollup.warm_hits, r.rollup.peak_pss_bytes, r.rollup.peak_live_vms,
                 r.sim_seconds, r.digest, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"selfcheck\": {\"ran\": %s, \"bit_identical\": %s}\n",
               selfcheck_ran ? "true" : "false", selfcheck_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

uint64_t ParseU64(const char* s) { return static_cast<uint64_t>(std::strtoull(s, nullptr, 10)); }

Options ParseFlags(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--hosts=", 8) == 0) {
      opt.hosts = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--invocations=", 14) == 0) {
      opt.invocations = ParseU64(arg + 14);
    } else if (std::strncmp(arg, "--rate=", 7) == 0) {
      opt.rate = std::atof(arg + 7);
    } else if (std::strncmp(arg, "--apps=", 7) == 0) {
      opt.apps = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--arrival=", 10) == 0) {
      auto a = fwwork::ParseArrivalProcess(arg + 10);
      if (!a.has_value()) {
        std::fprintf(stderr, "unknown arrival process %s\n", arg + 10);
        std::exit(2);
      }
      opt.arrival = *a;
    } else if (std::strncmp(arg, "--policy=", 9) == 0) {
      opt.policy = arg + 9;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = ParseU64(arg + 7);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.hosts = 8;
      opt.invocations = 20000;
      opt.rate = 4000.0;
    } else if (std::strcmp(arg, "--no-baselines") == 0) {
      opt.baselines = false;
    } else if (std::strcmp(arg, "--no-selfcheck") == 0) {
      opt.selfcheck = false;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opt.json_path = arg + 7;
      if (opt.json_path.empty()) {
        std::fprintf(stderr, "empty --json= path\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      opt.report_path = arg + 9;
      if (opt.report_path.empty()) {
        std::fprintf(stderr, "empty --report= path\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      opt.profile_prefix = arg + 10;
      if (opt.profile_prefix.empty()) {
        std::fprintf(stderr, "empty --profile= prefix\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      std::exit(2);
    }
  }
  if (opt.hosts < 1 || opt.invocations < 1 || opt.apps < 1 || opt.rate <= 0.0) {
    std::fprintf(stderr, "bad flag values\n");
    std::exit(2);
  }
  return opt;
}

HostCalibration Calibrate(fwbench::PlatformKind kind, uint64_t seed) {
  fwcluster::CalibrationOptions copt;
  copt.seed = seed;
  const fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  return fwcluster::CalibratePlatform(
      [kind](fwcore::HostEnv& env) { return fwbench::MakePlatform(kind, env); }, fn, copt);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseFlags(argc, argv);

  std::printf("cluster_scale: %d hosts, %" PRIu64 " invocations, %.0f req/s, %s arrivals, "
              "%d apps, seed %" PRIu64 "\n\n",
              opt.hosts, opt.invocations, opt.rate,
              fwwork::ArrivalProcessName(opt.arrival), opt.apps, opt.seed);

  // Full-fidelity calibration probes (each on its own scratch simulation).
  const HostCalibration fw_cal = Calibrate(fwbench::PlatformKind::kFireworks, opt.seed);
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
                               Calibrate(fwbench::PlatformKind::kOpenWhisk, opt.seed));
    baseline_cals.emplace_back("firecracker (microVM)",
                               Calibrate(fwbench::PlatformKind::kFirecracker, opt.seed));
    for (const auto& [name, cal] : baseline_cals) {
      cal_row(name.c_str(), cal);
    }
  }
  cal_table.Print();
  std::printf("\n");

  // Which policies to run.
  std::vector<SchedulerPolicy> policies;
  if (opt.policy == "all") {
    policies = fwcluster::AllSchedulerPolicies();
  } else {
    auto p = fwcluster::ParseSchedulerPolicy(opt.policy);
    if (!p.has_value()) {
      std::fprintf(stderr, "unknown policy %s\n", opt.policy.c_str());
      return 2;
    }
    policies = {*p};
  }

  // Profiling merges every fireworks run into one profile; it observes but
  // never perturbs the runs (the selfcheck digest stays bit-identical).
  fwobs::Profiler merged_profile([] { return fwbase::SimTime(); });
  fwobs::Profiler* profile = opt.profile_prefix.empty() ? nullptr : &merged_profile;

  const auto wall_start =  // host time; report-only
      std::chrono::steady_clock::now();  // fwlint:allow(determinism)
  std::vector<RunResult> results;
  for (SchedulerPolicy policy : policies) {
    const std::string label =
        std::string("fireworks/") + fwcluster::SchedulerPolicyName(policy);
    results.push_back(RunCluster(label, policy, fw_cal, opt, profile));
  }
  const double wall_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - wall_start).count();  // fwlint:allow(determinism)
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

  // Determinism self-check: the first policy again, same seed.
  bool identical = false;
  if (opt.selfcheck) {
    const RunResult again =
        RunCluster(results[0].label, policies[0], fw_cal, opt);
    identical = again.digest == results[0].digest;
    std::printf("determinism: two seed-%" PRIu64 " runs of %s are %s (digest %016" PRIx64
                ")\n",
                opt.seed, results[0].label.c_str(),
                identical ? "bit-identical" : "DIFFERENT", results[0].digest);
    if (!identical) {
      std::fprintf(stderr, "determinism self-check FAILED\n");
      return 1;
    }
  }

  if (!opt.json_path.empty()) {
    WriteJson(opt.json_path, opt, results, opt.selfcheck, identical);
  }

  if (profile != nullptr) {
    std::printf("\nprofile (merged over %zu fireworks run%s):\n%s", results.size(),
                results.size() == 1 ? "" : "s",
                fwobs::ProfilerTopN(merged_profile, 10).c_str());
    WriteFileOrDie(opt.profile_prefix + ".topn.txt", fwobs::ProfilerTopN(merged_profile, 10));
    WriteFileOrDie(opt.profile_prefix + ".collapsed",
                   fwobs::ProfilerCollapsed(merged_profile, fwobs::ProfileDim::kWall));
    WriteFileOrDie(opt.profile_prefix + ".sim.collapsed",
                   fwobs::ProfilerCollapsed(merged_profile, fwobs::ProfileDim::kSim));
    std::printf("wrote %s.{topn.txt,collapsed,sim.collapsed} (collapsed-stack flamegraph "
                "input)\n", opt.profile_prefix.c_str());
  }

  if (!opt.report_path.empty()) {
    // The headline (first) fireworks policy gates the trajectory; baselines
    // and alternate policies ride along in --json only.
    const RunResult& head = results[0];
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
    // An exact cost of the simulator itself: deterministic per seed, so
    // unchanged code diffs at 0.0% and any growth is real.
    report.AddGuardedMetric("events_per_inv",
                            static_cast<double>(head.events) / static_cast<double>(opt.invocations),
                            "lower");
    report.AddMetric("failed", static_cast<double>(head.rollup.failed));
    report.AddMetric("slo_alerts", static_cast<double>(head.rollup.slo_alerts));
    report.AddMetric("sim_seconds", head.sim_seconds);
    report.AddMetric("wall_seconds", wall_seconds);  // host-dependent: never guarded
    report.SetDigest(head.digest);
    report.WriteTo(opt.report_path);
  }
  return 0;
}
