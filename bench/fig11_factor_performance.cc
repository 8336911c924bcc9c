// Regenerates Figure 11: factor analysis of the performance impact of the two
// Fireworks design choices, across all FaaSdom benchmarks in both languages:
//
//   Firecracker (baseline, no snapshot — cold boot every invocation)
//     + VM-level OS snapshot (restore a post-boot snapshot, then launch the
//       runtime, load and run the function with profile-driven JIT only)
//       + post-JIT snapshot (= Fireworks: restore a snapshot taken after the
//         function was loaded and JIT-compiled)
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

int main(int argc, char** argv) {
  // No flags: any argument is a usage error.
  const fwbase::Status parsed = fwbench::ParseFlags(argc, argv, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  using namespace fwbench;
  using fwbase::StrFormat;

  std::printf("=== Figure 11: performance impact of Fireworks optimizations ===\n");
  Table table("End-to-end latency by configuration (one invocation per fresh sandbox)",
              {"benchmark", "firecracker", "+os-snapshot", "+post-jit", "os-snap gain",
               "post-jit gain", "total gain"});

  for (const auto language : {fwlang::Language::kNodeJs, fwlang::Language::kPython}) {
    for (const auto bench : fwwork::AllFaasdomBenches()) {
      const fwlang::FunctionSource fn = fwwork::MakeFaasdom(bench, language);
      const InvocationResult baseline = MeasureCold(PlatformKind::kFirecracker, fn);
      const InvocationResult os_snap = MeasureCold(PlatformKind::kFirecrackerOsSnapshot, fn);
      const InvocationResult post_jit = MeasureCold(PlatformKind::kFireworks, fn);
      table.AddRow({fn.name, Ms(baseline.total), Ms(os_snap.total), Ms(post_jit.total),
                    Ratio(baseline.total / os_snap.total),
                    Ratio(os_snap.total / post_jit.total),
                    Ratio(baseline.total / post_jit.total)});
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf("\n(os-snap gain = baseline/os-snapshot; post-jit gain = os-snapshot/post-jit.\n"
              " Paper: +OS snapshot gives ~2.3x on Node.js compute and up to ~6.1x on\n"
              " netlatency; +post-JIT dominates wherever JIT triggers late or never —\n"
              " Node.js I/O benches and all Python benches.)\n");
  return 0;
}
