// Elastic fleet bench: what capacity autoscaling buys (DESIGN.md §16).
//
// Drives the same diurnal + flash-crowd trace (loadgen kDiurnalFlash: a
// compressed day/night swing with periodic flash windows layered on top)
// against two fleets built from the same calibrated ModelHost:
//
//   static   host count sized for the trace's *peak* rate by the same
//            Little's-law formula the planner uses, provisioned for the whole
//            run — the classic "capacity planning for Black Friday" fleet;
//   elastic  starts at fleet.min_hosts and lets the FleetPlanner grow and
//            shrink the host count from observed arrivals: cold hosts join
//            through the registry-driven warm-up, idle hosts drain and are
//            decommissioned.
//
// Reported per variant: SLO attainment (good = OK within slo.target),
// latency percentiles, peak/mean provisioned hosts, host-hours (the
// FleetLedger's provision→remove intervals — the capacity bill), and
// host-seconds per 1k invocations.
//
// The bench asserts its own acceptance criterion: the elastic fleet must
// spend measurably fewer host-hours than the static one at equal-or-better
// SLO attainment, and same-seed elastic runs must be bit-identical (fleet
// growth is part of the deterministic event stream).
//
// Flags:
//   --invocations=M  total requests                      (default 120000)
//   --rate=R         mean cluster arrival rate, req/s    (default 1200)
//   --apps=K         Zipf-distributed app population     (default 16)
//   --seed=S         simulation + load seed              (default 42)
//   --smoke          reduced scale for CI (36k invocations, 600 req/s, 8 apps,
//                    a shorter day; explicit flags win in either order)
//   --report=FILE    write one fwbench/1 report (scripts/bench_trend.py input)
//
// A malformed or out-of-range value exits 2 with a message naming the flag.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet_manager.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/workloads/loadgen.h"

namespace {

using fwbase::Duration;
using fwcluster::Cluster;
using fwcluster::FleetConfig;
using fwcluster::FleetPlanner;
using fwcluster::HostCalibration;
using fwcluster::ModelHost;
using fwcluster::SchedulerPolicy;

struct Options {
  Options() {}
  uint64_t invocations = 120000;
  double rate = 1200.0;
  int apps = 16;
  uint64_t seed = 42;
  bool smoke = false;
  std::string report_path;
};

struct RunResult {
  RunResult() {}
  std::string label;
  Cluster::Rollup rollup;
  uint64_t digest = 0;
  int hosts_provisioned = 0;  // Initial fleet size.
};

// The shared autoscaling policy: both variants size hosts with this config —
// the static fleet once (for the peak), the elastic fleet every tick.
FleetConfig MakeFleetConfig() {
  FleetConfig fc;
  fc.interval = Duration::Millis(500);  // Flash reaction = one tick + join.
  fc.safety = 2.0;          // Ramp headroom: absorbs a flash while joins land.
  fc.min_hosts = 2;
  fc.max_hosts = 12;
  fc.host_capacity = 6;     // Concurrent requests per host at target util.
  fc.rate_ewma_alpha = 0.5;
  fc.scale_down_ticks = 4;  // 2s of sustained low demand before a drain.
  fc.max_add_per_tick = 6;
  return fc;
}

fwwork::LoadGenConfig MakeTrace(const Options& opt) {
  fwwork::LoadGenConfig lg;
  lg.arrival = fwwork::ArrivalProcess::kDiurnalFlash;
  lg.rate_per_sec = opt.rate;
  lg.num_apps = opt.apps;
  lg.seed = opt.seed;
  if (opt.smoke) {
    lg.diurnal_period_seconds = 60.0;
    lg.flash_interval_seconds = 30.0;
    lg.flash_duration_seconds = 5.0;
    lg.flash_offset_seconds = 20.0;
  } else {
    lg.diurnal_period_seconds = 120.0;
    lg.flash_interval_seconds = 45.0;
    lg.flash_duration_seconds = 8.0;
    lg.flash_offset_seconds = 30.0;
  }
  lg.diurnal_amplitude = 0.8;
  lg.flash_multiplier = 2.0;
  return lg;
}

double PeakRate(const fwwork::LoadGenConfig& lg) {
  return lg.rate_per_sec * (1.0 + lg.diurnal_amplitude) * lg.flash_multiplier;
}

RunResult RunFleet(bool elastic, const HostCalibration& calibration,
                   const Options& opt) {
  const fwwork::LoadGenConfig lg = MakeTrace(opt);
  FleetConfig fleet = MakeFleetConfig();
  constexpr int kWorkersPerHost = 8;
  // The static fleet pays for the peak all day; the elastic one starts at the
  // floor and discovers demand. Both sizes come from the same planner math.
  // Intrinsic warm cost — the same startup+exec signal the cluster's runtime
  // EWMA feeds the planner, so both fleets are sized by the same model.
  const double warm_service_s =
      (calibration.warm_startup + calibration.warm_exec).seconds();
  // Survivability floor: even at the trough, keep enough raw throughput
  // (workers_per_host concurrent requests at the intrinsic warm cost) that
  // the worst flash queues briefly instead of shedding while scale-up joins
  // are still warming. This is the elastic fleet's only peak-aware knob; the
  // planner does everything above it.
  fleet.min_hosts = std::max(
      fleet.min_hosts,
      static_cast<int>(std::ceil(PeakRate(lg) * warm_service_s / kWorkersPerHost)));
  const FleetPlanner sizer(fleet, /*default_host_capacity=*/fleet.host_capacity);
  const int static_hosts = sizer.Desired(PeakRate(lg), warm_service_s);
  const int initial_hosts = elastic ? fleet.min_hosts : static_hosts;

  fwsim::Simulation sim(opt.seed);
  ModelHost::Config host_config;
  host_config.calibration = calibration;
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  hosts.reserve(initial_hosts);
  for (int i = 0; i < initial_hosts; ++i) {
    hosts.push_back(std::make_unique<ModelHost>(sim, i, host_config));
  }
  Cluster::Config config;
  config.policy = SchedulerPolicy::kSnapshotLocality;
  config.num_zones = 3;
  config.workers_per_host = kWorkersPerHost;
  if (elastic) {
    config.fleet = fleet;
    config.fleet.enabled = true;
    config.host_factory = [host_config](fwsim::Simulation& s, int index) {
      return std::make_unique<ModelHost>(s, index, host_config);
    };
  }
  Cluster cluster(sim, std::move(hosts), config);
  fwbench::RunLoad(sim, cluster, lg, opt.invocations);
  sim.Run();  // Let in-flight joins/drains and clone prepares settle.

  RunResult r;
  r.label = elastic ? "elastic" : "static";
  r.rollup = cluster.ComputeRollup();
  r.digest = cluster.OutcomeDigest();
  r.hosts_provisioned = initial_hosts;
  return r;
}

double HostSecondsPer1k(const RunResult& r) {
  return r.rollup.completed > 0
             ? r.rollup.host_hours * 3600.0 * 1000.0 /
                   static_cast<double>(r.rollup.completed)
             : 0.0;
}

std::vector<std::string> ResultRow(const RunResult& r) {
  const auto& s = r.rollup.latency_ms;
  return {r.label,
          fwbase::StrFormat("%" PRIu64, r.rollup.completed),
          fwbase::StrFormat("%.4f", r.rollup.slo_attainment),
          fwbase::StrFormat("%.2f", s.mean()),
          fwbase::StrFormat("%.2f", s.Percentile(99.0)),
          fwbase::StrFormat("%d", r.hosts_provisioned),
          fwbase::StrFormat("%" PRIu64, r.rollup.hosts_added),
          fwbase::StrFormat("%" PRIu64, r.rollup.hosts_removed),
          fwbase::StrFormat("%.3f", r.rollup.host_hours),
          fwbase::StrFormat("%.2f", HostSecondsPer1k(r))};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const fwbase::Status parsed = fwbench::ParseFlags(
      argc, argv,
      {fwbench::U64Flag("--invocations", &opt.invocations, 1),
       fwbench::DoubleFlag("--rate", &opt.rate),
       fwbench::IntFlag("--apps", &opt.apps, 1),
       fwbench::U64Flag("--seed", &opt.seed, 0),
       fwbench::SwitchFlag("--smoke",
                           [&opt] {
                             opt.smoke = true;
                             opt.invocations = 36000;
                             opt.rate = 600.0;
                             opt.apps = 8;
                           }),
       fwbench::PathFlag("--report", &opt.report_path)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }

  std::printf("elastic_fleet: %" PRIu64 " invocations, %.0f req/s mean "
              "(diurnal+flash peak %.0f req/s), %d apps, seed %" PRIu64 "\n\n",
              opt.invocations, opt.rate, PeakRate(MakeTrace(opt)), opt.apps, opt.seed);

  // One full-fidelity calibration probe shared by both fleets: the variants
  // differ only in how many hosts are provisioned and when.
  const HostCalibration cal = fwbench::Calibrate(fwbench::PlatformKind::kFireworks, opt.seed);

  const fwbench::WallTimer wall;
  std::vector<RunResult> results;
  results.push_back(RunFleet(/*elastic=*/false, cal, opt));
  results.push_back(RunFleet(/*elastic=*/true, cal, opt));
  const double wall_seconds = wall.Seconds();

  const RunResult& stat = results[0];
  const RunResult& elastic = results[1];

  fwbench::Table table(
      fwbase::StrFormat("static vs elastic fleet (%" PRIu64 " invocations, "
                        "diurnal+flash trace)", opt.invocations),
      {"fleet", "completed", "SLO att.", "mean ms", "P99 ms", "hosts@t0", "added",
       "removed", "host-hours", "host-s/1k"});
  table.AddRow(ResultRow(stat));
  table.AddRow(ResultRow(elastic));
  table.Print();
  std::printf("\n");

  const double savings_pct =
      stat.rollup.host_hours > 0.0
          ? 100.0 * (1.0 - elastic.rollup.host_hours / stat.rollup.host_hours)
          : 0.0;
  std::printf("elastic vs static: %.1f%% fewer host-hours (%.3f -> %.3f), "
              "SLO attainment %.4f -> %.4f\n",
              savings_pct, stat.rollup.host_hours, elastic.rollup.host_hours,
              stat.rollup.slo_attainment, elastic.rollup.slo_attainment);

  // Acceptance criteria (ISSUE 10): measurably fewer host-hours at
  // equal-or-better SLO, with all traffic still served.
  bool ok = true;
  if (elastic.rollup.host_hours >= 0.75 * stat.rollup.host_hours) {
    std::fprintf(stderr, "FAIL: elastic host-hours (%.3f) not measurably below "
                 "static (%.3f)\n",
                 elastic.rollup.host_hours, stat.rollup.host_hours);
    ok = false;
  }
  if (elastic.rollup.slo_attainment + 0.002 < stat.rollup.slo_attainment) {
    std::fprintf(stderr, "FAIL: elastic SLO attainment (%.4f) below static "
                 "(%.4f)\n",
                 elastic.rollup.slo_attainment, stat.rollup.slo_attainment);
    ok = false;
  }
  if (elastic.rollup.completed + elastic.rollup.failed != opt.invocations ||
      stat.rollup.completed + stat.rollup.failed != opt.invocations) {
    std::fprintf(stderr, "FAIL: requests lost\n");
    ok = false;
  }
  if (elastic.rollup.hosts_added == 0 || elastic.rollup.hosts_removed == 0) {
    std::fprintf(stderr, "FAIL: the elastic fleet never grew or never shrank "
                 "(added=%" PRIu64 ", removed=%" PRIu64 ") — the scenario is not "
                 "exercising the autoscaler\n",
                 elastic.rollup.hosts_added, elastic.rollup.hosts_removed);
    ok = false;
  }

  // Fleet growth must replay bit-identically.
  const auto replay = [&] { return RunFleet(/*elastic=*/true, cal, opt).digest; };
  if (!fwbench::ReplayIsBitIdentical(opt.seed, "elastic runs", elastic.digest, replay)) {
    ok = false;
  }

  if (!opt.report_path.empty()) {
    const auto& lat = elastic.rollup.latency_ms;
    fwbench::BenchReport report("elastic_fleet");
    report.AddConfig("invocations", opt.invocations);
    report.AddConfig("rate_per_sec", opt.rate);
    report.AddConfig("apps", opt.apps);
    report.AddConfig("seed", opt.seed);
    report.AddConfig("static_hosts", stat.hosts_provisioned);
    report.AddGuardedMetric("slo_attainment", elastic.rollup.slo_attainment, "higher");
    report.AddGuardedMetric("host_hours", elastic.rollup.host_hours, "lower");
    report.AddGuardedMetric("host_seconds_per_1k", HostSecondsPer1k(elastic), "lower");
    report.AddGuardedMetric("savings_pct", savings_pct, "higher");
    report.AddGuardedMetric("p99_ms", lat.Percentile(99.0), "lower");
    report.AddGuardedMetric("completed", static_cast<double>(elastic.rollup.completed),
                            "higher");
    report.AddMetric("mean_ms", lat.mean());
    report.AddMetric("static_host_hours", stat.rollup.host_hours);
    report.AddMetric("hosts_added", static_cast<double>(elastic.rollup.hosts_added));
    report.AddMetric("hosts_removed", static_cast<double>(elastic.rollup.hosts_removed));
    report.AddMetric("wall_seconds", wall_seconds);
    report.SetDigest(elastic.digest);
    report.WriteTo(opt.report_path);
  }

  if (!ok) {
    return 1;
  }
  std::printf("elastic_fleet: acceptance criteria met\n");
  return 0;
}
