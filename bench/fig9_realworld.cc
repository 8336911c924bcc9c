// Regenerates Figure 9 (and prints the Figure 8 application topology):
// execution of the two ServerlessBench real-world applications — Alexa Skills
// and data analysis — on Fireworks vs OpenWhisk, the only two platforms able
// to process function chains (§5.3).
//
// For each chain we report both the all-cold first run and the keep-alive
// (warm) steady state of OpenWhisk; Fireworks always resumes snapshots. The
// data-analysis app exercises the Cloud trigger: inserting a wage record into
// CouchDB fires the analysis chain automatically (Fig 8(b) dashed box).
//
// Flags:
//   --report=FILE   write one fwbench/1 report (scripts/bench_trend.py input)
//
// An unknown flag or an empty path exits 2.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/core/cloud_trigger.h"
#include "src/workloads/serverlessbench.h"

namespace fwbench {
namespace {

using fwbase::StrFormat;
using fwcore::CloudTrigger;
using fwcore::InvocationResult;
using fwwork::ChainApp;

InvocationResult SumChain(const std::vector<InvocationResult>& stages) {
  InvocationResult sum;
  for (const auto& stage : stages) {
    sum += stage;
  }
  return sum;
}

void PrintTopology(const ChainApp& app) {
  std::printf("\nFigure 8 topology: %s\n", app.name.c_str());
  for (const auto& [chain_name, fns] : app.chains) {
    std::string arrow;
    for (size_t i = 0; i < fns.size(); ++i) {
      if (i != 0) {
        arrow += " -> ";
      }
      arrow += fns[i];
    }
    const bool triggered = app.trigger_chain == chain_name;
    std::printf("  %-10s: %s%s\n", chain_name.c_str(), arrow.c_str(),
                triggered ? StrFormat("   [triggered by updates to '%s']",
                                      app.trigger_db.c_str())
                                .c_str()
                          : "");
  }
}

// Runs every chain of `app` on a fresh platform instance and returns the
// summed per-run result. `warm` pre-warms every function first (OpenWhisk
// keep-alive steady state).
InvocationResult RunApp(PlatformKind kind, const ChainApp& app, bool warm,
                        const std::string& type_sig) {
  HostEnv env;
  auto platform = MakePlatform(kind, env);
  for (const auto& fn : app.functions) {
    auto install = fwsim::RunSync(env.sim(), platform->Install(fn));
    FW_CHECK_MSG(install.ok(), install.status().ToString().c_str());
  }
  if (warm) {
    for (const auto& fn : app.functions) {
      FW_CHECK(fwsim::RunSync(env.sim(), platform->Prewarm(fn.name)).ok());
    }
  }
  fwcore::InvokeOptions options;
  options.type_sig = type_sig;

  InvocationResult sum;
  // A DB-update trigger, if the app declares one.
  std::unique_ptr<CloudTrigger> trigger;
  int expected_firings = 0;
  if (!app.trigger_db.empty()) {
    trigger = std::make_unique<CloudTrigger>(env, *platform, app.trigger_db,
                                             app.Chain(app.trigger_chain), options);
    // Each chain that writes the trigger DB fires it once.
    for (const auto& [chain_name, fns] : app.chains) {
      if (chain_name != app.trigger_chain) {
        ++expected_firings;
      }
    }
    trigger->Start(expected_firings);
  }

  int sig_counter = 0;
  for (const auto& [chain_name, fns] : app.chains) {
    if (chain_name == app.trigger_chain) {
      continue;  // Fired by the trigger, not directly.
    }
    // Varied argument shapes across requests (§6 worst case for JIT).
    fwcore::InvokeOptions chain_options = options;
    chain_options.type_sig = StrFormat("%s-%d", type_sig.c_str(), sig_counter++);
    auto results =
        fwsim::RunSync(env.sim(), platform->InvokeChain(fns, "{\"request\":1}", chain_options));
    FW_CHECK_MSG(results.ok(), results.status().ToString().c_str());
    sum += SumChain(*results);
  }
  if (trigger != nullptr) {
    env.sim().Run();  // Let pending trigger firings drain.
    FW_CHECK_MSG(trigger->Done(), "cloud trigger did not fire");
    for (const auto& firing : trigger->firings()) {
      sum += SumChain(firing);
    }
    FW_CHECK(trigger->errors().empty());
  }
  return sum;
}

struct PanelResult {
  PanelResult() {}
  InvocationResult ow_cold;
  InvocationResult ow_warm;
  InvocationResult fw;
};

PanelResult RunFigurePanel(char panel, const ChainApp& app) {
  PrintTopology(app);
  Table table(StrFormat("Figure 9(%c): %s — per-run latency summed over all chain stages",
                        panel, app.name.c_str()),
              BreakdownColumns());
  const InvocationResult ow_cold = RunApp(PlatformKind::kOpenWhisk, app, /*warm=*/false, "req");
  const InvocationResult ow_warm = RunApp(PlatformKind::kOpenWhisk, app, /*warm=*/true, "req");
  const InvocationResult fw = RunApp(PlatformKind::kFireworks, app, /*warm=*/false, "req");
  table.AddRow(BreakdownRow("openwhisk (cold)", ow_cold));
  table.AddRow(BreakdownRow("openwhisk (warm)", ow_warm));
  table.AddSeparator();
  table.AddRow(BreakdownRow("fireworks", fw));
  table.Print();
  std::printf("  vs openwhisk cold: start-up %s faster, exec %s faster\n",
              Ratio(ow_cold.startup / fw.startup).c_str(),
              Ratio(ow_cold.exec / fw.exec).c_str());
  std::printf("  vs openwhisk warm: start-up %s faster, exec %s faster\n",
              Ratio(ow_warm.startup / fw.startup).c_str(),
              Ratio(ow_warm.exec / fw.exec).c_str());
  PanelResult r;
  r.ow_cold = ow_cold;
  r.ow_warm = ow_warm;
  r.fw = fw;
  return r;
}

// Per-panel report entries: the fireworks end-to-end latency is what the
// trajectory defends; the speedup ratios over OpenWhisk ride along guarded
// too, so a baseline "improvement" that erodes the headline gap also trips.
void AddPanelMetrics(BenchReport& report, const char* name, const PanelResult& r) {
  report.AddGuardedMetric(StrFormat("%s_fw_total_ms", name), r.fw.total.millis(), "lower");
  report.AddGuardedMetric(StrFormat("%s_fw_startup_ms", name), r.fw.startup.millis(),
                          "lower");
  report.AddGuardedMetric(StrFormat("%s_cold_startup_speedup", name),
                          r.ow_cold.startup / r.fw.startup, "higher");
  report.AddGuardedMetric(StrFormat("%s_warm_startup_speedup", name),
                          r.ow_warm.startup / r.fw.startup, "higher");
  report.AddMetric(StrFormat("%s_ow_cold_total_ms", name), r.ow_cold.total.millis());
  report.AddMetric(StrFormat("%s_ow_warm_total_ms", name), r.ow_warm.total.millis());
}

}  // namespace
}  // namespace fwbench

int main(int argc, char** argv) {
  std::string report_path;
  const fwbase::Status parsed =
      fwbench::ParseFlags(argc, argv, {fwbench::PathFlag("--report", &report_path)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }

  const fwbench::WallTimer wall;
  std::printf("=== Figure 9: real-world ServerlessBench applications "
              "(Fireworks vs OpenWhisk) ===\n");
  const fwbench::PanelResult alexa =
      fwbench::RunFigurePanel('a', fwwork::MakeAlexaSkills());
  const fwbench::PanelResult analysis =
      fwbench::RunFigurePanel('b', fwwork::MakeDataAnalysis());

  if (!report_path.empty()) {
    fwbench::BenchReport report("fig9_realworld");
    report.AddConfig("apps", "alexa,data_analysis");
    fwbench::AddPanelMetrics(report, "alexa", alexa);
    fwbench::AddPanelMetrics(report, "analysis", analysis);
    report.AddMetric("wall_seconds", wall.Seconds());  // host-dependent: never guarded
    report.WriteTo(report_path);
  }
  return 0;
}
