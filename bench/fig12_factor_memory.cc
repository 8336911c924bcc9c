// Regenerates Figure 12: factor analysis of the memory impact of the two
// Fireworks design choices. Per the paper's methodology (§5.5.2), each
// configuration runs 10 concurrent microVMs with the same benchmark and
// reports the per-VM PSS.
//
// Expected shape: +OS snapshot saves memory everywhere (shared kernel/OS
// pages); +post-JIT saves substantially more for Node.js (V8's lean, lazily
// allocated, shareable code objects) but almost nothing for Python (Numba
// duplicates JITted code per module, so its pages unshare on resume).
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

namespace fwbench {
namespace {

double PerVmPssMiB(PlatformKind kind, const fwlang::FunctionSource& fn, int vms) {
  HostEnv env;
  auto platform = MakePlatform(kind, env);
  FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());
  fwcore::InvokeOptions options;
  options.keep_instance = true;
  options.force_cold = true;
  for (int i = 0; i < vms; ++i) {
    auto result = fwsim::RunSync(env.sim(), platform->Invoke(fn.name, "{}", options));
    FW_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  }
  const double pss = platform->MeasurePssBytes() / vms / (1024.0 * 1024.0);
  platform->ReleaseInstances();
  return pss;
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
  using fwbase::StrFormat;
  constexpr int kVms = 10;

  std::printf("=== Figure 12: memory impact of Fireworks optimizations "
              "(per-VM PSS with %d concurrent microVMs) ===\n", kVms);
  Table table("Per-VM PSS (MiB) by configuration",
              {"benchmark", "firecracker", "+os-snapshot", "+post-jit", "os-snap saving",
               "post-jit saving"});

  for (const auto language : {fwlang::Language::kNodeJs, fwlang::Language::kPython}) {
    for (const auto bench : fwwork::AllFaasdomBenches()) {
      const fwlang::FunctionSource fn = fwwork::MakeFaasdom(bench, language);
      const double baseline = PerVmPssMiB(PlatformKind::kFirecracker, fn, kVms);
      const double os_snap = PerVmPssMiB(PlatformKind::kFirecrackerOsSnapshot, fn, kVms);
      const double post_jit = PerVmPssMiB(PlatformKind::kFireworks, fn, kVms);
      table.AddRow({fn.name, StrFormat("%.1f", baseline), StrFormat("%.1f", os_snap),
                    StrFormat("%.1f", post_jit),
                    StrFormat("%.0f%%", (1.0 - os_snap / baseline) * 100.0),
                    StrFormat("%.0f%%", (1.0 - post_jit / os_snap) * 100.0)});
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf("\n(savings are relative to the previous column; paper: OS snapshot up to 73%%,\n"
              " post-JIT up to 74%% more for Node.js, ~0%% for Python.)\n");
  return 0;
}
