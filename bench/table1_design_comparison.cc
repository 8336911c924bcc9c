// Regenerates Table 1: the design comparison of serverless platforms across
// isolation, performance, and memory efficiency. Isolation level is a design
// property; the performance and memory columns are *measured* on this host
// (faas-netlatency cold+warm start-up; per-VM PSS of 10 concurrent sandboxes
// running faas-fact) and then bucketed into the paper's qualitative grades.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

namespace fwbench {
namespace {

using fwbase::StrFormat;

const char* IsolationOf(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kFirecracker:
    case PlatformKind::kFirecrackerOsSnapshot:
    case PlatformKind::kFireworks:
      return "High (VM)";
    case PlatformKind::kOpenWhisk:
    case PlatformKind::kGvisor:
    case PlatformKind::kGvisorSnapshot:
      return "Medium (container)";
    case PlatformKind::kIsolate:
      return "Low (runtime)";
  }
  return "?";
}

std::string GradeStartup(Duration cold, Duration warm) {
  const double c = cold.millis();
  const double w = warm.millis();
  if (c < 50.0 && w < 50.0) {
    return StrFormat("Extreme (cold %.0fms / warm %.0fms)", c, w);
  }
  if (w < 20.0 || c < 300.0) {
    return StrFormat("High (cold %.0fms / warm %.0fms)", c, w);
  }
  if (w < 100.0) {
    return StrFormat("Medium (cold %.0fms / warm %.0fms)", c, w);
  }
  return StrFormat("Low (cold %.0fms / warm %.0fms)", c, w);
}

std::string GradeMemory(double per_vm_pss_mib) {
  if (per_vm_pss_mib < 30.0) {
    return StrFormat("Extreme (%.0f MiB/sandbox)", per_vm_pss_mib);
  }
  if (per_vm_pss_mib < 80.0) {
    return StrFormat("High (%.0f MiB/sandbox)", per_vm_pss_mib);
  }
  if (per_vm_pss_mib < 150.0) {
    return StrFormat("Medium (%.0f MiB/sandbox)", per_vm_pss_mib);
  }
  return StrFormat("Low (%.0f MiB/sandbox)", per_vm_pss_mib);
}

double MeasurePssPerSandbox(PlatformKind kind, int count) {
  HostEnv env;
  auto platform = MakePlatform(kind, env);
  const fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs);
  FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());
  fwcore::InvokeOptions options;
  options.keep_instance = true;
  options.force_cold = true;
  for (int i = 0; i < count; ++i) {
    FW_CHECK(fwsim::RunSync(env.sim(), platform->Invoke(fn.name, "{}", options)).ok());
  }
  const double pss = platform->MeasurePssBytes() / count / (1024.0 * 1024.0);
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
  std::printf("=== Table 1: design comparison of serverless platforms ===\n");
  std::printf("(performance measured on faas-netlatency-nodejs; memory as per-sandbox PSS of\n"
              " 10 concurrent faas-fact-nodejs sandboxes)\n");

  Table table("Design comparison", {"platform", "isolation", "performance", "memory efficiency"});
  const fwlang::FunctionSource netlat =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  for (const PlatformKind kind :
       {PlatformKind::kFirecracker, PlatformKind::kOpenWhisk, PlatformKind::kGvisor,
        PlatformKind::kGvisorSnapshot, PlatformKind::kIsolate, PlatformKind::kFireworks}) {
    const InvocationResult cold = MeasureCold(kind, netlat);
    const InvocationResult warm = MeasureWarm(kind, netlat);
    const double pss = MeasurePssPerSandbox(kind, 10);
    table.AddRow({PlatformName(kind), IsolationOf(kind),
                  GradeStartup(cold.startup, warm.startup), GradeMemory(pss)});
  }
  table.Print();
  std::printf("\n(paper's Table 1: Firecracker high-iso/medium-perf/high-mem; OpenWhisk medium/\n"
              " low/low; gVisor medium/medium/high; Workers low/high/high; Fireworks high/\n"
              " extreme/extreme.)\n");
  return 0;
}
