// Snapshot registry + per-host chunk cache (bookkeeping only).
//
// The registry is the cluster's source of truth for published snapshots: it
// maps app names to manifests and chunk digests to sizes. The ChunkCache is
// one host's byte-budgeted LRU over chunk digests — the thing that turns a
// second cold start on the same runtime into a delta-only pull. Neither type
// models time or the network, and neither keeps counts: transfer cost lives
// in fwnet::ClusterFabric, and the fetch protocol (retries, peer fallback)
// and its counts by source in fwcluster::SnapshotDistribution.
#ifndef FIREWORKS_SRC_STORAGE_REGISTRY_H_
#define FIREWORKS_SRC_STORAGE_REGISTRY_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/storage/manifest.h"

namespace fwstore {

// Byte-budgeted LRU set of chunk digests. Insertion order is the eviction
// order (front of the list = coldest); Touch moves a digest to the hot end.
// Deterministic: same insert/touch sequence → same eviction sequence.
class ChunkCache {
 public:
  explicit ChunkCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  bool Contains(uint64_t digest) const { return entries_.count(digest) > 0; }

  // Marks a resident chunk most-recently-used. No-op if absent.
  void Touch(uint64_t digest);

  // Inserts a chunk, evicting cold entries until the budget holds. Returns
  // the digests evicted (oldest first). A chunk larger than the whole budget
  // is refused (returned uncached, nothing evicted for it); an already
  // resident digest is just touched.
  std::vector<uint64_t> Insert(uint64_t digest, uint64_t bytes);

  void Erase(uint64_t digest);

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  uint64_t entries() const { return entries_.size(); }

  // Contains + LRU touch on hit, for fetch paths.
  bool Lookup(uint64_t digest);

 private:
  struct Entry {
    uint64_t bytes = 0;
    std::list<uint64_t>::iterator order_it;
  };

  uint64_t budget_bytes_;
  uint64_t used_bytes_ = 0;
  std::list<uint64_t> order_;  // front = coldest, back = hottest; bounded by budget_bytes_.
  std::map<uint64_t, Entry> entries_;
};

// The cluster-wide snapshot registry: published manifests plus the chunk
// universe they reference. Pure state; callers charge transfer time through
// the fabric before touching it.
class SnapshotRegistry {
 public:
  // Publishes (or republishes) an app's manifest; chunk digests join the
  // served universe.
  void Publish(const SnapshotManifest& manifest);

  bool HasManifest(const std::string& app) const {
    return manifests_.count(app) > 0;
  }

  fwbase::Result<SnapshotManifest> FetchManifest(const std::string& app) const;

  // In-place read of a published manifest (local bookkeeping, not a fetch);
  // nullptr when the app was never published.
  const SnapshotManifest* Peek(const std::string& app) const {
    auto it = manifests_.find(app);
    return it == manifests_.end() ? nullptr : &it->second;
  }

  // Serves one chunk by digest, returning its size; NotFound if never
  // published.
  fwbase::Result<uint64_t> FetchChunk(uint64_t digest) const;

  uint64_t chunk_count() const { return chunk_bytes_.size(); }

 private:
  std::map<std::string, SnapshotManifest> manifests_;
  std::map<uint64_t, uint64_t> chunk_bytes_;  // digest -> size.
};

}  // namespace fwstore

#endif  // FIREWORKS_SRC_STORAGE_REGISTRY_H_
