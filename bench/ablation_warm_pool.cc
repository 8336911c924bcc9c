// Ablation for the §1/§2 motivation: warm pools hold hardware hostage for
// functions that may never be called again (81.4 % of functions are invoked
// less than once a minute). We deploy a fleet of functions, invoke each once,
// and compare the memory the platform is left holding: OpenWhisk keeps a warm
// container per function; Fireworks keeps only disk snapshots and zero
// resident sandboxes, yet still starts faster than the warm containers.
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
  constexpr int kFunctions = 40;

  std::printf("=== Ablation: warm-pool residency vs snapshot-only (one invocation each of %d"
              " functions) ===\n", kFunctions);

  Table table("Post-invocation footprint and next-start latency",
              {"platform", "resident sandboxes", "host memory held", "disk held",
               "next start latency"});

  for (const PlatformKind kind : {PlatformKind::kOpenWhisk, PlatformKind::kFireworks}) {
    HostEnv env;
    auto platform = MakePlatform(kind, env);
    std::vector<std::string> names;
    for (int i = 0; i < kFunctions; ++i) {
      fwlang::FunctionSource fn =
          fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
      fn.name = StrFormat("fn-%02d", i);
      FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());
      names.push_back(fn.name);
    }
    const uint64_t mem_before_invokes = env.memory().used_bytes();
    for (const auto& name : names) {
      FW_CHECK(fwsim::RunSync(env.sim(),
                              platform->Invoke(name, "{}", fwcore::InvokeOptions()))
                   .ok());
    }
    const uint64_t held = env.memory().used_bytes() - mem_before_invokes;
    // Next start on an arbitrary function (warm for OpenWhisk).
    auto next = fwsim::RunSync(env.sim(),
                               platform->Invoke(names[kFunctions / 2], "{}",
                                                fwcore::InvokeOptions()));
    FW_CHECK(next.ok());
    const int resident = kind == PlatformKind::kFireworks ? 0 : kFunctions;
    table.AddRow({PlatformName(kind), std::to_string(resident),
                  fwbase::BytesToString(held),
                  fwbase::BytesToString(env.snapshot_store().used_bytes()),
                  Ms(next->startup)});
    platform->ReleaseInstances();
  }
  table.Print();
  std::printf("\n(the warm pool's memory cost scales with the number of *deployed* functions;\n"
              " Fireworks holds no sandbox memory between invocations — §2.2's 81.4%% of\n"
              " rarely-invoked functions cost only disk.)\n");
  return 0;
}
