// Regenerates the §5.1 "post-JIT snapshot creation time" measurements: for
// every FaaSdom function in both languages, the installation-phase breakdown
// — package installation, runtime/app bring-up, JIT compilation, and the
// snapshot itself. The paper reports snapshot creation of 0.36–0.47 s for
// Node.js and 0.38–0.44 s for Python, with npm install dominating Node.js
// installation and JIT compilation scaling with application complexity for
// Python.
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/serverlessbench.h"

int main(int argc, char** argv) {
  // No flags: any argument is a usage error.
  const fwbase::Status parsed = fwbench::ParseFlags(argc, argv, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  using namespace fwbench;
  using fwbase::StrFormat;

  std::printf("=== §5.1: post-JIT snapshot creation time (installation phase) ===\n");
  Table table("Installation breakdown on Fireworks",
              {"function", "install total", "jit time", "snapshot time", "snapshot size"});

  auto add_fn = [&table](const fwlang::FunctionSource& fn) {
    HostEnv env;
    fwcore::FireworksPlatform platform(env);
    auto install = fwsim::RunSync(env.sim(), platform.Install(fn));
    FW_CHECK_MSG(install.ok(), install.status().ToString().c_str());
    table.AddRow({fn.name, Ms(install->total), Ms(install->jit_time),
                  Ms(install->snapshot_time),
                  fwbase::BytesToString(install->snapshot_bytes)});
  };

  for (const auto bench : fwwork::AllFaasdomBenches()) {
    for (const auto language : {fwlang::Language::kNodeJs, fwlang::Language::kPython}) {
      add_fn(fwwork::MakeFaasdom(bench, language));
    }
  }
  table.AddSeparator();
  for (const auto& app : {fwwork::MakeAlexaSkills(), fwwork::MakeDataAnalysis()}) {
    for (const auto& fn : app.functions) {
      add_fn(fn);
    }
  }
  table.Print();
  std::printf("\n(paper: snapshotting itself takes 0.36–0.47 s (Node.js) / 0.38–0.44 s (Python);\n"
              " npm install dominates Node.js installs; Python installs scale with JIT\n"
              " compilation of the application code.)\n");
  return 0;
}
