// Regenerates Figure 10: host memory usage as microVMs accumulate, for plain
// Firecracker (every VM cold-booted, fully private) vs Fireworks (every VM
// resumed from the shared post-JIT snapshot), running the faas-fact Node.js
// benchmark as long-lived instances (§5.4).
//
// The paper launches VMs until swapping begins (vm.swappiness = 60 → 60 % of
// the 128 GB host) and reports Firecracker sustaining 337 microVMs vs
// Fireworks 565 (≈1.67× more). This bench reproduces the series (memory vs VM
// count) and the two consolidation maxima.
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

namespace fwbench {
namespace {

using fwbase::StrFormat;

struct SeriesPoint {
  SeriesPoint() = default;
  int vms = 0;
  double used_gib = 0.0;
  double pss_per_vm_mib = 0.0;
};

struct SeriesResult {
  SeriesResult() = default;
  std::vector<SeriesPoint> points;
  int max_vms = 0;
};

SeriesResult RunSeries(PlatformKind kind, int report_every, int hard_cap) {
  HostEnv env;
  auto platform = MakePlatform(kind, env);
  const fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs);
  FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());

  fwcore::InvokeOptions options;
  options.keep_instance = true;
  options.steady_state = true;  // Long-running instances (continuous load).
  options.force_cold = true;    // Every instance gets its own sandbox.

  SeriesResult series;
  int count = 0;
  while (count < hard_cap) {
    auto result = fwsim::RunSync(env.sim(), platform->Invoke(fn.name, "{}", options));
    FW_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    ++count;
    if (env.memory().swapping()) {
      break;  // The paper stops when swapping starts.
    }
    if (count % report_every == 0) {
      SeriesPoint point;
      point.vms = count;
      point.used_gib = static_cast<double>(env.memory().used_bytes()) / (1024.0 * 1024 * 1024);
      point.pss_per_vm_mib =
          platform->MeasurePssBytes() / static_cast<double>(count) / (1024.0 * 1024);
      series.points.push_back(point);
    }
  }
  series.max_vms = count;
  platform->ReleaseInstances();
  return series;
}

}  // namespace
}  // namespace fwbench

int main(int argc, char** argv) {
  // No flags: any argument is a usage error.
  const fwbase::Status parsed = fwbench::ParseFlags(argc, argv, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  using namespace fwbench;
  std::printf("=== Figure 10: memory usage vs number of microVMs (faas-fact, Node.js) ===\n");
  std::printf("host: 128 GiB, swap threshold at 60%% (76.8 GiB), long-running instances\n");

  const SeriesResult firecracker =
      RunSeries(PlatformKind::kFirecracker, /*report_every=*/50, /*hard_cap=*/1200);
  const SeriesResult fireworks =
      RunSeries(PlatformKind::kFireworks, /*report_every=*/50, /*hard_cap=*/1200);

  Table table("Host memory used (GiB) and per-VM PSS (MiB) as microVMs accumulate",
              {"microVMs", "firecracker GiB", "fc PSS/VM", "fireworks GiB", "fw PSS/VM"});
  const size_t rows = std::max(firecracker.points.size(), fireworks.points.size());
  for (size_t i = 0; i < rows; ++i) {
    auto cell = [](const SeriesResult& s, size_t i, bool gib) {
      if (i >= s.points.size()) {
        return std::string("(swapping)");
      }
      return gib ? fwbase::StrFormat("%.1f", s.points[i].used_gib)
                 : fwbase::StrFormat("%.1f", s.points[i].pss_per_vm_mib);
    };
    const int vms = static_cast<int>((i + 1) * 50);
    table.AddRow({std::to_string(vms), cell(firecracker, i, true), cell(firecracker, i, false),
                  cell(fireworks, i, true), cell(fireworks, i, false)});
  }
  table.Print();

  std::printf("\nMax consolidation before swapping:\n");
  std::printf("  firecracker : %d microVMs   (paper: 337)\n", firecracker.max_vms);
  std::printf("  fireworks   : %d microVMs   (paper: 565)\n", fireworks.max_vms);
  std::printf("  ratio       : %.2fx more sandboxes (paper: 1.67x)\n",
              static_cast<double>(fireworks.max_vms) / firecracker.max_vms);
  return 0;
}
