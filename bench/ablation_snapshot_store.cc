// Ablation for the §6 disk-space discussion: bounding the snapshot store and
// evicting with a replacement policy. A fleet of installed functions larger
// than the store's capacity is invoked under a Zipf-like popularity skew; we
// compare eviction policies by snapshot hit rate and by the re-install work
// the platform would have to redo on a miss.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/fault/fault.h"
#include "src/mem/address_space.h"
#include "src/mem/host_memory.h"
#include "src/obs/observability.h"
#include "src/simcore/run_sync.h"
#include "src/storage/snapshot_store.h"

namespace {

using fwbase::StrFormat;
using fwstore::SnapshotStore;
using namespace fwbase::literals;

struct PolicyResult {
  PolicyResult() = default;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  double reinstall_seconds = 0.0;  // Cost of re-creating evicted snapshots.
};

PolicyResult RunPolicy(SnapshotStore::EvictionPolicy policy, int functions, int accesses,
                       uint64_t capacity_bytes) {
  fwsim::Simulation sim(7);
  fwobs::Observability obs([&sim] { return sim.Now(); });
  fwfault::FaultInjector no_faults(sim, fwfault::FaultPlan(), /*seed=*/0);
  fwmem::HostMemory host(64_GiB, obs);
  fwstore::BlockDevice disk(sim, fwstore::BlockDevice::Config{}, no_faults);
  SnapshotStore store(sim, disk, capacity_bytes, obs, no_faults, policy);

  // Each function's snapshot is ~220 MiB (the Fig 10 calibration).
  auto make_image = [&host](int i) {
    fwmem::AddressSpace space(host);
    auto seg = space.AddSegment("mem", 220 * fwbase::kMiB);
    space.DirtyBytes(seg, 220 * fwbase::kMiB);
    return space.TakeSnapshot(StrFormat("fn-%03d", i));
  };
  auto reinstall = [&](int i) {
    // Re-creating an evicted snapshot re-runs install: boot + JIT + write.
    // We charge a representative 3.5 s (the measured faas-fact install).
    return fwsim::RunSync(sim, [](fwsim::Simulation& s, SnapshotStore& st,
                                  std::shared_ptr<fwmem::SnapshotImage> image)
                                   -> fwsim::Co<fwbase::Status> {
      co_await fwsim::Delay(s, fwbase::Duration::MillisF(3500));
      co_return co_await st.Save(std::move(image));
    }(sim, store, make_image(i)));
  };

  PolicyResult result;
  for (int i = 0; i < functions; ++i) {
    auto status = reinstall(i);
    if (!status.ok()) {
      // Store smaller than one snapshot: nothing to measure.
      FW_CHECK_MSG(false, status.ToString().c_str());
    }
  }
  // Zipf-ish popularity: function k chosen with weight 1/(k+1).
  fwbase::Rng rng(1234);
  std::vector<double> cumulative(functions);
  double total = 0.0;
  for (int k = 0; k < functions; ++k) {
    total += 1.0 / (k + 1);
    cumulative[k] = total;
  }
  const fwbase::SimTime t0 = sim.Now();
  double reinstall_time = 0.0;
  for (int a = 0; a < accesses; ++a) {
    const double pick = rng.UniformDouble() * total;
    int fn = 0;
    while (cumulative[fn] < pick) {
      ++fn;
    }
    auto image = store.Get(StrFormat("fn-%03d", fn));
    if (image.ok()) {
      ++result.hits;
    } else {
      ++result.misses;
      const fwbase::SimTime r0 = sim.Now();
      FW_CHECK(reinstall(fn).ok());
      reinstall_time += (sim.Now() - r0).seconds();
    }
  }
  (void)t0;
  result.evictions = obs.metrics().CounterValue("store.snapshot.evict.count");
  result.reinstall_seconds = reinstall_time;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // No flags: any argument is a usage error.
  const fwbase::Status parsed = fwbench::ParseFlags(argc, argv, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  using fwbench::Table;
  std::printf("=== Ablation (§6): snapshot-store capacity with eviction policies ===\n");
  std::printf("60 installed functions x ~220 MiB snapshots, Zipf-skewed invocations,\n"
              "store capacity 8 GiB (fits ~37 snapshots)\n");

  Table table("Eviction policy comparison (2000 invocations)",
              {"policy", "hits", "misses", "hit rate", "evictions", "reinstall time"});
  struct Row {
    SnapshotStore::EvictionPolicy policy;
    const char* name;
  };
  for (const Row& row : {Row{SnapshotStore::EvictionPolicy::kLru, "LRU"},
                         Row{SnapshotStore::EvictionPolicy::kFifo, "FIFO"}}) {
    const PolicyResult r = RunPolicy(row.policy, 60, 2000, 8ull * 1024 * 1024 * 1024);
    table.AddRow({row.name, std::to_string(r.hits), std::to_string(r.misses),
                  StrFormat("%.1f%%", 100.0 * r.hits / (r.hits + r.misses)),
                  std::to_string(r.evictions), StrFormat("%.1f s", r.reinstall_seconds)});
  }
  table.Print();
  std::printf("\n(LRU keeps frequently-accessed snapshots resident, as §6 proposes; FIFO churns\n"
              " hot snapshots and pays far more re-install work.)\n");
  return 0;
}
