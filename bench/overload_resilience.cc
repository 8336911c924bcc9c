// Overload + resilience bench: admission control, retry budgets, and hedging
// under offered load from 0.5× to 2× cluster capacity.
//
// The cluster's warm service time and worker count fix a nominal capacity
// C = hosts × workers / service. Each leg drives a Poisson stream at
// m × C for a fixed window and measures *goodput*: completions a client
// would still be waiting for, i.e. submit→completion latency within the
// 150 ms patience window. Two front-end configurations run the same sweep:
//
//   admission  bounded dispatch queues, deadline-aware shedding at enqueue,
//              per-app retry budgets (the DESIGN.md §11 configuration);
//   control    no admission, no deadline awareness: every request queues
//              and is eventually served, long after the client gave up.
//
// The headline claim this bench defends: with admission on, goodput at 2×
// load stays ≥ 80% of the peak across the sweep (overload degrades into a
// plateau), while the control's goodput collapses (unbounded queueing serves
// almost nothing within the patience window). A separate pair of legs at
// 0.8× load injects host_slowdown gray failures and shows quantile-triggered
// hedging cutting P99.9 with zero duplicate completions.
//
// The bench exits non-zero if any of those acceptance properties fails, or
// if the same-seed replay diverges.
//
// Flags:
//   --hosts=N        simulated hosts                       (default 8)
//   --duration=S     measured window per leg, seconds      (default 8)
//   --warmup=S       unmeasured lead-in, seconds           (default 4)
//   --apps=K         app population                        (default 16)
//   --seed=S         simulation + load seed                (default 42)
//   --smoke          reduced scale for CI (4 hosts, 2.5 s window; explicit
//                    flags win in either order)
//   --report=FILE    write one fwbench/1 report (scripts/bench_trend.py input)
//
// A malformed or out-of-range value exits 2 with a message naming the flag.
//
// Every leg also runs the cluster SLO monitor with the objective aligned to
// the patience window, so the table reports per-leg attainment and how many
// burn-rate alerts fired. Attainment is cumulative over the whole leg
// (warmup included): the cold-start ramp costs every leg a few points and
// typically one burn-rate alert per app, and overload then drives the real
// separation — in-capacity legs hold high attainment, saturated legs crater.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/fault/fault.h"
#include "src/workloads/loadgen.h"

namespace {

using fwbase::Duration;
using fwcluster::Cluster;
using fwcluster::HostCalibration;
using fwcluster::ModelHost;

constexpr int kWorkersPerHost = 8;
const Duration kPatience = Duration::Millis(150);
const Duration kWarmService = Duration::Millis(5);
// Fraction of the theoretical workers/kWarmService ceiling the fleet
// actually sustains: per-app Poisson bursts overflow finite warm pools, so a
// few percent of executions take the 20 ms cold path. Folding the packing
// loss into "1.0x" keeps the sweep honest — multipliers are fractions of
// achievable capacity, not of an unreachable ideal.
constexpr double kPackingEfficiency = 0.85;

struct Options {
  Options() {}
  int hosts = 8;
  double duration_sec = 8.0;
  // Unmeasured lead-in at the same rate: lets the autoscaler build warm
  // pools and drain the cold ramp so the measured window is steady state.
  double warmup_sec = 4.0;
  int apps = 16;
  uint64_t seed = 42;
  std::string report_path;

  double capacity_rps() const {
    return kPackingEfficiency * static_cast<double>(hosts) * kWorkersPerHost /
           kWarmService.seconds();
  }
};

struct LegResult {
  LegResult() {}
  std::string label;
  double multiplier = 0.0;
  uint64_t offered = 0;          // Measured-window submissions only.
  Cluster::Rollup rollup;
  fwbase::SampleStats latency_ms;  // Completed measured-window requests.
  uint64_t within_patience = 0;  // Completed with latency <= kPatience.
  uint64_t duplicates = 0;       // Requests with >1 recorded completion.
  uint64_t digest = 0;

  double goodput_rps(const Options& opt) const {
    return static_cast<double>(within_patience) / opt.duration_sec;
  }
  double goodput_frac() const {
    return offered > 0
               ? static_cast<double>(within_patience) / static_cast<double>(offered)
               : 0.0;
  }
};

// Warm 5 ms / cold 20 ms: the 4× cold penalty is what makes losing warm
// pools under overload hurt.
HostCalibration BenchCalibration() {
  HostCalibration cal;
  cal.cold_startup = Duration::Millis(12);
  cal.cold_exec = Duration::Millis(4);
  cal.cold_others = Duration::Millis(4);
  cal.warm_startup = Duration::Micros(800);
  cal.warm_exec = Duration::Millis(4);
  cal.warm_others = Duration::Micros(200);
  cal.prepare_cost = Duration::Millis(10);
  cal.instance_pss_bytes = 50e6;
  cal.pooled_clone_pss_bytes = 6e6;
  return cal;
}

LegResult RunLeg(const std::string& label, const Options& opt, double multiplier,
                 bool overload_control, bool hedging, const fwfault::FaultPlan& plan) {
  fwsim::Simulation sim(opt.seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  hosts.reserve(opt.hosts);
  ModelHost::Config host_config;
  host_config.vcpus = kWorkersPerHost;
  host_config.calibration = BenchCalibration();
  for (int i = 0; i < opt.hosts; ++i) {
    hosts.push_back(std::make_unique<ModelHost>(sim, i, host_config));
  }
  Cluster::Config config;
  config.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  config.workers_per_host = kWorkersPerHost;
  if (overload_control) {
    // Deadline-aware shedding at enqueue + bounded queues + retry budgets.
    config.admission.default_deadline = kPatience;
    config.admission.queue_capacity = 256;
  } else {
    // Control: requests queue without bound and are all eventually served —
    // mostly long after the client's patience expired.
    config.admission.enabled = false;
    config.retry_budget = false;
  }
  config.hedging = hedging;
  // SLO objective = the patience window, so attainment/burn-rate alerting
  // measures exactly the goodput criterion the bench defends.
  config.slo.target = kPatience;
  config.fault_plan = plan;
  config.fault_seed = opt.seed * 0x9E3779B97F4A7C15ull + 1;
  Cluster cluster(sim, std::move(hosts), config);

  const double rate = multiplier * opt.capacity_rps();
  const uint64_t warmup = static_cast<uint64_t>(rate * opt.warmup_sec);
  const uint64_t invocations = static_cast<uint64_t>(rate * opt.duration_sec);
  fwwork::LoadGenConfig lg;
  lg.arrival = fwwork::ArrivalProcess::kPoisson;
  lg.rate_per_sec = rate;
  lg.num_apps = opt.apps;
  lg.seed = opt.seed;
  fwbench::RunLoad(sim, cluster, lg, warmup + invocations);
  sim.Run();  // Drain surplus hedge copies through their discard path.

  LegResult r;
  r.label = label;
  r.multiplier = multiplier;
  r.offered = invocations;
  r.rollup = cluster.ComputeRollup();
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const Cluster::Outcome& out = cluster.outcome(id);
    if (out.completions > 1) {
      ++r.duplicates;  // Exactly-once is checked over warmup too.
    }
    if (id <= warmup) {
      continue;
    }
    if (out.status.ok()) {
      r.latency_ms.Add(out.latency.millis());
      if (out.latency <= kPatience) {
        ++r.within_patience;
      }
    }
  }
  r.digest = cluster.OutcomeDigest();
  return r;
}

std::vector<std::string> ResultRow(const Options& opt, const LegResult& r) {
  const auto& s = r.latency_ms;
  return {r.label,
          fwbase::StrFormat("%.2fx", r.multiplier),
          fwbase::StrFormat("%" PRIu64, r.offered),
          fwbase::StrFormat("%" PRIu64, r.rollup.completed),
          fwbase::StrFormat("%" PRIu64, r.rollup.shed),
          fwbase::StrFormat("%" PRIu64, r.rollup.expired),
          fwbase::StrFormat("%.0f", r.goodput_rps(opt)),
          fwbase::StrFormat("%.0f%%", 100.0 * r.goodput_frac()),
          fwbase::StrFormat("%.2f", s.Percentile(99.0)),
          fwbase::StrFormat("%.2f", s.Percentile(99.9)),
          fwbase::StrFormat("%.1f%%", 100.0 * r.rollup.slo_attainment),
          fwbase::StrFormat("%" PRIu64, r.rollup.slo_alerts)};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const fwbase::Status parsed = fwbench::ParseFlags(
      argc, argv,
      {fwbench::IntFlag("--hosts", &opt.hosts, 1),
       fwbench::DoubleFlag("--duration", &opt.duration_sec),
       fwbench::DoubleFlag("--warmup", &opt.warmup_sec, /*zero_ok=*/true),
       fwbench::IntFlag("--apps", &opt.apps, 1),
       fwbench::U64Flag("--seed", &opt.seed, 0),
       fwbench::SwitchFlag("--smoke",
                           [&opt] {
                             opt.hosts = 4;
                             opt.duration_sec = 2.5;
                           }),
       fwbench::PathFlag("--report", &opt.report_path)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  const fwfault::FaultPlan no_faults;

  std::printf("overload_resilience: %d hosts x %d workers, capacity %.0f req/s, "
              "patience %.0f ms, %.1f s window per leg, seed %" PRIu64 "\n\n",
              opt.hosts, kWorkersPerHost, opt.capacity_rps(), kPatience.millis(),
              opt.duration_sec, opt.seed);

  const fwbench::WallTimer wall;
  const std::vector<double> multipliers = {0.5, 0.8, 1.0, 1.25, 1.5, 2.0};
  std::vector<LegResult> results;
  for (const bool overload_control : {true, false}) {
    const char* label = overload_control ? "admission" : "control";
    for (const double m : multipliers) {
      results.push_back(
          RunLeg(label, opt, m, overload_control, /*hedging=*/false, no_faults));
    }
  }

  // Hedging legs: 0.8x load with 1% of invocations stalling ~100 ms (gray
  // failure — exactly the tail hedging exists to shave).
  // Gray failures for the hedging legs: rare (0.2%) but severe (~100 ms
  // mean, 20x warm service) stalls, so the P99.9 tail is straggler-dominated
  // while the added service time (~0.2 ms/req) leaves utilization near 0.8.
  fwfault::FaultPlan slow_plan;
  slow_plan.Set(fwfault::FaultKind::kHostSlowdown, 0.002);
  const LegResult hedge_off = RunLeg("slowdown/no-hedge", opt, 0.8,
                                     /*overload_control=*/false, /*hedging=*/false,
                                     slow_plan);
  const LegResult hedge_on = RunLeg("slowdown/hedge", opt, 0.8,
                                    /*overload_control=*/false, /*hedging=*/true,
                                    slow_plan);
  results.push_back(hedge_off);
  results.push_back(hedge_on);

  fwbench::Table table(
      fwbase::StrFormat("goodput within %.0f ms patience (%.1f s offered window)",
                        kPatience.millis(), opt.duration_sec),
      {"configuration", "load", "offered", "completed", "shed", "expired",
       "goodput/s", "goodput%", "P99 ms", "P99.9 ms", "SLO%", "alerts"});
  for (const LegResult& r : results) {
    table.AddRow(ResultRow(opt, r));
  }
  table.Print();
  std::printf("\n");

  // --- Acceptance ----------------------------------------------------------
  bool accepted = true;
  double peak_goodput = 0.0;
  const LegResult* admission_1x = nullptr;
  const LegResult* admission_2x = nullptr;
  const LegResult* control_2x = nullptr;
  for (const LegResult& r : results) {
    if (r.label == "admission") {
      peak_goodput = std::max(peak_goodput, r.goodput_rps(opt));
      if (r.multiplier == 1.0) {
        admission_1x = &r;
      } else if (r.multiplier == 2.0) {
        admission_2x = &r;
      }
    } else if (r.label == "control" && r.multiplier == 2.0) {
      control_2x = &r;
    }
  }
  FW_CHECK(admission_1x != nullptr && admission_2x != nullptr && control_2x != nullptr);
  const double admission_2x_frac = admission_2x->goodput_rps(opt) / peak_goodput;
  const double control_2x_frac = control_2x->goodput_rps(opt) / peak_goodput;
  std::printf("admission goodput at 2.0x: %.0f req/s = %.0f%% of peak (%.0f req/s)\n",
              admission_2x->goodput_rps(opt), 100.0 * admission_2x_frac, peak_goodput);
  std::printf("control   goodput at 2.0x: %.0f req/s = %.0f%% of peak\n",
              control_2x->goodput_rps(opt), 100.0 * control_2x_frac);
  if (admission_2x_frac < 0.8) {
    std::fprintf(stderr, "FAIL: admission goodput at 2x dropped below 80%% of peak\n");
    accepted = false;
  }
  if (control_2x->goodput_rps(opt) >= admission_2x->goodput_rps(opt)) {
    std::fprintf(stderr, "FAIL: control did not collapse below the admission config\n");
    accepted = false;
  }

  const double p999_off = hedge_off.latency_ms.Percentile(99.9);
  const double p999_on = hedge_on.latency_ms.Percentile(99.9);
  std::printf("hedging at 0.8x under host_slowdown: P99.9 %.2f ms -> %.2f ms "
              "(%" PRIu64 " hedges, %" PRIu64 " wins, %" PRIu64 " duplicates)\n",
              p999_off, p999_on, hedge_on.rollup.hedges, hedge_on.rollup.hedge_wins,
              hedge_on.duplicates);
  if (!(p999_on < p999_off)) {
    std::fprintf(stderr, "FAIL: hedging did not reduce P99.9\n");
    accepted = false;
  }
  for (const LegResult& r : results) {
    if (r.duplicates > 0) {
      std::fprintf(stderr, "FAIL: %s at %.2fx recorded %" PRIu64
                           " duplicate completions\n",
                   r.label.c_str(), r.multiplier, r.duplicates);
      accepted = false;
    }
  }

  // The admission leg at 1.0x again, same seed.
  const auto replay = [&] {
    return RunLeg("admission", opt, 1.0, /*overload_control=*/true, /*hedging=*/false, no_faults)
        .digest;
  };
  if (!fwbench::ReplayIsBitIdentical(opt.seed, "admission runs at 1.0x", admission_1x->digest,
                                     replay)) {
    accepted = false;
  }

  if (!opt.report_path.empty()) {
    fwbench::BenchReport report("overload_resilience");
    report.AddConfig("hosts", opt.hosts);
    report.AddConfig("workers_per_host", kWorkersPerHost);
    report.AddConfig("duration_sec", opt.duration_sec);
    report.AddConfig("warmup_sec", opt.warmup_sec);
    report.AddConfig("apps", opt.apps);
    report.AddConfig("seed", opt.seed);
    report.AddConfig("patience_ms", kPatience.millis());
    // The sweep's defended properties, as trend-gated metrics.
    report.AddGuardedMetric("peak_goodput_rps", peak_goodput, "higher");
    report.AddGuardedMetric("admission_2x_goodput_rps", admission_2x->goodput_rps(opt),
                            "higher");
    report.AddGuardedMetric("admission_2x_frac_of_peak", admission_2x_frac, "higher");
    report.AddGuardedMetric("hedge_p999_ms", p999_on, "lower");
    report.AddGuardedMetric("slo_attainment_1x", admission_1x->rollup.slo_attainment,
                            "higher");
    report.AddGuardedMetric("slo_alerts_2x_admission",
                            static_cast<double>(admission_2x->rollup.slo_alerts), "lower");
    report.AddMetric("control_2x_goodput_rps", control_2x->goodput_rps(opt));
    report.AddMetric("slo_alerts_2x_control",
                     static_cast<double>(control_2x->rollup.slo_alerts));
    report.AddMetric("nohedge_p999_ms", p999_off);
    report.AddMetric("accepted", accepted ? 1.0 : 0.0);
    report.AddMetric("wall_seconds", wall.Seconds());  // host-dependent: never guarded
    report.SetDigest(admission_1x->digest);
    report.WriteTo(opt.report_path);
  }
  return accepted ? 0 : 1;
}
