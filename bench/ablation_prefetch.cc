// Ablation for the §7 discussion: "Fireworks can also employ REAP's
// prefetching to further reduce the overhead for reading snapshots from
// disk." When the snapshot file is cold (dropped from the host page cache —
// host restart, cache pressure, remote store), every first-touch fault pays a
// random 4 KiB disk read; REAP-style prefetch replaces that with one bulk
// sequential read of the recorded working set.
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

namespace {

fwbench::InvocationResult RunOnce(bool cold_cache, bool prefetch) {
  using namespace fwbench;
  HostEnv env;
  fwcore::FireworksPlatform::Config config;
  config.prefetch_on_restore = prefetch;
  fwcore::FireworksPlatform platform(env, config);
  const fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs);
  FW_CHECK(fwsim::RunSync(env.sim(), platform.Install(fn)).ok());
  if (cold_cache) {
    // Drop the snapshot file from the page cache (e.g. after a host restart).
    platform.SnapshotImageOf(fn.name)->set_cache_warm(false);
  }
  auto result = fwsim::RunSync(env.sim(), platform.Invoke(fn.name, "{}",
                                                          fwcore::InvokeOptions()));
  FW_CHECK(result.ok());
  return *result;
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
  std::printf("=== Ablation (§7): REAP-style working-set prefetch on snapshot restore ===\n");
  Table table("faas-fact-nodejs invocation with the snapshot file warm vs cold",
              BreakdownColumns());
  table.AddRow(BreakdownRow("warm page cache (default)", RunOnce(false, false)));
  table.AddRow(BreakdownRow("cold file, lazy faults", RunOnce(true, false)));
  table.AddRow(BreakdownRow("cold file, REAP prefetch", RunOnce(true, true)));
  table.Print();
  std::printf("\n(lazy restore of a cold file pays a random 4 KiB read per touched page; the\n"
              " prefetch pays one sequential bulk read up front and restores warm-cache\n"
              " latency, reproducing REAP's result on top of Fireworks.)\n");
  return 0;
}
