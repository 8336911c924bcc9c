// Snapshot distribution tier: how a cold host obtains an app's post-JIT
// snapshot (DESIGN.md §13).
//
// The registry (fwstore::SnapshotRegistry) is the source of truth for
// published manifests; every host runs a byte-budgeted LRU chunk cache
// (fwstore::ChunkCache) and can serve chunks it holds to peers. The fetch
// protocol, per chunk and in this order:
//
//   1. local chunk cache (free — the base runtime layer is shared by every
//      app on the same runtime, so one app's pull warms the next app's);
//   2. a peer that holds the chunk (rack-local latency/bandwidth);
//   3. the registry (bounded transfer streams, shared bandwidth).
//
// Fetches retry with deterministic exponential backoff on injected faults
// (chunk_corruption fails the digest check after the transfer; a corrupt peer
// chunk falls back to the registry). A host that exhausts every source
// cold-boots the app from scratch — slower, but the cluster stays available
// with the registry down (the chaos suite asserts exactly this).
//
// After install, the first invocation performs a REAP-style working-set
// restore: the manifest carries the page ranges a recording invocation
// touched, and the host prefetches exactly those bytes sequentially instead
// of demand-faulting them one random read at a time.
//
// Everything here is deterministic: no RNG is drawn unless a fault plan
// enables the registry fault kinds, peer selection is lowest-index-holder,
// and concurrent fetches of the same app on one host coalesce onto one
// in-flight pull. The tier is opt-in (Config::enabled defaults false); a
// cluster without it behaves bit-identically to one built before the tier
// existed.
#ifndef FIREWORKS_SRC_CLUSTER_SNAPSHOT_DISTRIBUTION_H_
#define FIREWORKS_SRC_CLUSTER_SNAPSHOT_DISTRIBUTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/cluster/app_table.h"
#include "src/fault/fault.h"
#include "src/net/fabric.h"
#include "src/obs/observability.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"
#include "src/storage/registry.h"

namespace fwcluster {

struct DistributionConfig {
  DistributionConfig() {}

  // Off by default: the cluster then assumes every host holds every snapshot
  // (the pre-distribution model) and none of this code runs.
  bool enabled = false;

  // Layered images: one base runtime layer shared by every app on the same
  // runtime (Node.js) plus a small per-app post-JIT delta. When false, each
  // app publishes a single monolithic layer of base+delta bytes.
  bool layered = true;
  uint64_t base_layer_bytes = 96ull << 20;
  uint64_t delta_layer_bytes = 16ull << 20;
  uint64_t chunk_bytes = 1ull << 20;

  // Per-host chunk cache budget; zero disables caching entirely.
  uint64_t cache_budget_bytes = 512ull << 20;

  // Try peers holding a chunk before falling back to the registry.
  bool peer_fetch = true;

  // REAP working-set restore: prefetch only the manifest's working set
  // before the first invocation instead of demand-faulting every touched
  // page.
  bool working_set_restore = true;

  // Full cold boot (no snapshot at all) when every fetch source is lost.
  fwbase::Duration cold_boot_cost = fwbase::Duration::Millis(1500);

  // vmgenid-style uniqueness restoration on every modeled restore
  // (DESIGN.md §15): each WarmRestore call bumps the host's generation
  // counter and charges the guest-side reseed + clock-rebase latency before
  // the clone serves traffic, surfaced as registry.guest_reseed /
  // registry.clock_rebase spans. The costs are the full-fidelity Node.js
  // RuntimeCosts vmgenid numbers.
  bool restore_uniqueness = true;
};

// Per-tier transfer/outcome counters, aggregated across hosts.
struct DistributionStats {
  uint64_t manifest_fetches = 0;
  uint64_t cold_fetches = 0;    // EnsureSnapshot calls that had to pull.
  uint64_t coalesced = 0;       // Calls that waited on an in-flight pull.
  uint64_t chunks_from_cache = 0;
  uint64_t chunks_from_peer = 0;
  uint64_t chunks_from_registry = 0;
  uint64_t bytes_from_cache = 0;
  uint64_t bytes_from_peer = 0;
  uint64_t bytes_from_registry = 0;
  uint64_t retries = 0;
  uint64_t corrupt_chunks = 0;
  uint64_t registry_unreachable = 0;
  uint64_t cold_boots = 0;      // Total-loss fallbacks.
  uint64_t cache_evictions = 0;
  uint64_t warm_restores = 0;   // Working-set prefetches performed.
  uint64_t demand_restores = 0; // First invocations that demand-faulted.
  uint64_t guest_reseeds = 0;   // vmgenid reseed protocols completed (§15).
};

class SnapshotDistribution {
 public:
  // Fetch retry bound, for the manifest and for each chunk. Backoff is
  // deterministic (base << attempt): the simulation RNG must not be drawn on
  // the distribution path.
  static constexpr int kMaxFetchAttempts = 3;

  // Apps are named by their ids in `apps`, which must outlive the tier; the
  // names are read only on cold paths (registry manifests, span attributes).
  SnapshotDistribution(fwsim::Simulation& sim, const AppTable& apps, int num_hosts,
                       const DistributionConfig& config, fwobs::Observability& obs,
                       fwfault::FaultInjector& injector);

  // Publishes `app`'s snapshot to the registry as a layered manifest with a
  // synthetic working set, and seeds `seed_host` (the host that produced the
  // snapshot) as holding it. The manifest round-trips through its JSON wire
  // format so the production path exercises the codec.
  void Publish(AppId app, int seed_host);

  // Whether `host` holds `app`'s snapshot locally (installed or seeded).
  bool Holds(int host, AppId app) const;
  // Whether `host` has already warmed `app` (working set prefetched or
  // demand-faulted by a prior first invocation).
  bool Warm(int host, AppId app) const;

  // Marks `host` as holding `app` without any transfer: the publishing host,
  // or a host that just cold-booted the app from source.
  void AdoptLocal(int host, AppId app);

  // A restarted host keeps its on-disk state (chunk cache, installed images)
  // but lost its page cache: every app needs a fresh working-set restore.
  void OnHostRestart(int host);

  // Grows the tier by one host (elastic fleet join): empty chunk cache, no
  // holds, generation zero — a genuinely cold machine.
  void AddHost();

  // Ensures `host` holds `app`'s snapshot, pulling manifest + chunks through
  // cache → peer → registry as needed. Ok when the host already holds it.
  // On total loss (registry unreachable through every retry), cold-boots:
  // charges cold_boot_cost, adopts locally, and still returns Ok — the error
  // path is unavailability, not failure. Concurrent calls for the same
  // (host, app) coalesce onto one pull.
  fwsim::Co<fwbase::Status> EnsureSnapshot(int host, AppId app);

  // First-invocation warm-up on `host`: REAP working-set prefetch when
  // enabled (sequential read of the manifest's working set), otherwise the
  // equivalent demand-fault cost (one random read per touched page).
  // Subsequent calls for a warm (host, app) are free.
  fwsim::Co<void> WarmRestore(int host, AppId app);

  const DistributionStats& stats() const { return stats_; }
  // vmgenid generation high-water mark for `host` (monotonic, never reset —
  // not even across OnHostRestart, mirroring a real vmgenid counter).
  uint64_t Generation(int host) const { return generations_[static_cast<size_t>(host)]; }
  const fwstore::SnapshotRegistry& registry() const { return registry_; }
  const fwstore::ChunkCache& cache(int host) const { return *caches_[host]; }
  const DistributionConfig& config() const { return config_; }

 private:
  // Fetches one chunk onto `host` (cache → peer → registry), returning
  // whether it crossed the network (false: the local cache served it).
  // Updates the cache and holder index.
  fwsim::Co<fwbase::Result<bool>> FetchChunk(int host, const fwstore::ChunkRef& chunk);
  // Deterministic peer choice: the lowest-index host (≠ self) whose cache
  // holds the chunk; -1 when none does.
  int PickPeer(int host, uint64_t digest) const;
  void InsertChunk(int host, const fwstore::ChunkRef& chunk);

  fwsim::Simulation& sim_;
  const AppTable& apps_;
  DistributionConfig config_;
  fwobs::Observability& obs_;
  fwfault::FaultInjector& injector_;
  fwnet::ClusterFabric fabric_;
  fwstore::SnapshotRegistry registry_;
  std::vector<std::unique_ptr<fwstore::ChunkCache>> caches_;
  // Per host, indexed by AppId: 1 when the host holds the app's installed
  // snapshot image / has warmed it. Grown on demand; a missing id reads 0.
  std::vector<std::vector<uint8_t>> holds_;
  std::vector<std::vector<uint8_t>> warm_;
  // Per-host vmgenid counter: one bump per modeled restore (§15).
  std::vector<uint64_t> generations_;
  // digest -> hosts whose cache holds the chunk (peer-fetch index; entries
  // leave when the owning cache evicts).
  std::map<uint64_t, std::set<int>> chunk_holders_;
  // (host, app) pulls in flight: latecomers wait instead of double-fetching.
  std::map<std::pair<int, AppId>, std::shared_ptr<fwsim::SimEvent>> inflight_;
  DistributionStats stats_;
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_SNAPSHOT_DISTRIBUTION_H_
