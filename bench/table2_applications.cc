// Regenerates Table 2: the tested serverless applications — all FaaSdom
// micro-benchmarks in both languages plus the two ServerlessBench apps —
// with a smoke-run on Fireworks proving each one installs and executes.
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/serverlessbench.h"

namespace {

const char* DescriptionOf(fwwork::FaasdomBench bench) {
  switch (bench) {
    case fwwork::FaasdomBench::kFact:
      return "Integer factorization";
    case fwwork::FaasdomBench::kMatrixMult:
      return "Multiplication of large matrices";
    case fwwork::FaasdomBench::kDiskIo:
      return "Disk I/O performance measurement";
    case fwwork::FaasdomBench::kNetLatency:
      return "Network latency test (responds immediately)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  // No flags: any argument is a usage error.
  const fwbase::Status parsed = fwbench::ParseFlags(argc, argv, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  using namespace fwbench;
  using fwbase::StrFormat;
  std::printf("=== Table 2: tested serverless applications ===\n");

  Table table("Applications (with Fireworks smoke-run)",
              {"application", "description", "language", "methods", "smoke total"});

  for (const auto bench : fwwork::AllFaasdomBenches()) {
    for (const auto language : {fwlang::Language::kNodeJs, fwlang::Language::kPython}) {
      const fwlang::FunctionSource fn = fwwork::MakeFaasdom(bench, language);
      const InvocationResult run = MeasureCold(PlatformKind::kFireworks, fn);
      table.AddRow({StrFormat("FaaSdom: faas-%s", fwwork::FaasdomBenchName(bench)),
                    DescriptionOf(bench), fwlang::LanguageName(language),
                    std::to_string(fn.methods.size()), Ms(run.total)});
    }
  }
  table.AddSeparator();

  for (const auto& app : {fwwork::MakeAlexaSkills(), fwwork::MakeDataAnalysis()}) {
    // Smoke-run: install all functions and run the first non-trigger chain.
    HostEnv env;
    auto platform = MakePlatform(PlatformKind::kFireworks, env);
    for (const auto& fn : app.functions) {
      FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());
    }
    fwcore::InvocationResult sum;
    for (const auto& [chain_name, fns] : app.chains) {
      if (chain_name == app.trigger_chain) {
        continue;
      }
      auto results = fwsim::RunSync(
          env.sim(), platform->InvokeChain(fns, "{}", fwcore::InvokeOptions()));
      FW_CHECK(results.ok());
      for (const auto& r : *results) {
        sum += r;
      }
      break;
    }
    const char* description = app.name == "alexa-skills"
                                  ? "Apps run through Alexa AI device"
                                  : "Store and analyze employees' wage statistics";
    table.AddRow({StrFormat("ServerlessBench: %s", app.name.c_str()), description, "nodejs",
                  std::to_string(app.functions.size()) + " fns", Ms(sum.total)});
  }
  table.Print();
  return 0;
}
