#include "src/storage/registry.h"

namespace fwstore {

void ChunkCache::Touch(uint64_t digest) {
  auto it = entries_.find(digest);
  if (it == entries_.end()) {
    return;
  }
  order_.splice(order_.end(), order_, it->second.order_it);
}

std::vector<uint64_t> ChunkCache::Insert(uint64_t digest, uint64_t bytes) {
  std::vector<uint64_t> evicted;
  if (entries_.count(digest) > 0) {
    Touch(digest);
    return evicted;
  }
  if (bytes > budget_bytes_) {
    // Never evict the whole cache for one oversized chunk.
    return evicted;
  }
  while (used_bytes_ + bytes > budget_bytes_ && !order_.empty()) {
    const uint64_t cold = order_.front();
    evicted.push_back(cold);
    Erase(cold);
  }
  Entry e;
  e.bytes = bytes;
  order_.push_back(digest);
  e.order_it = std::prev(order_.end());
  entries_[digest] = e;
  used_bytes_ += bytes;
  return evicted;
}

void ChunkCache::Erase(uint64_t digest) {
  auto it = entries_.find(digest);
  if (it == entries_.end()) {
    return;
  }
  used_bytes_ -= it->second.bytes;
  order_.erase(it->second.order_it);
  entries_.erase(it);
}

bool ChunkCache::Lookup(uint64_t digest) {
  if (!Contains(digest)) {
    return false;
  }
  Touch(digest);
  return true;
}

void SnapshotRegistry::Publish(const SnapshotManifest& manifest) {
  for (const LayerManifest& layer : manifest.layers) {
    for (const ChunkRef& c : layer.chunks) {
      chunk_bytes_[c.digest] = c.bytes;
    }
  }
  manifests_[manifest.app] = manifest;
}

fwbase::Result<SnapshotManifest> SnapshotRegistry::FetchManifest(
    const std::string& app) const {
  auto it = manifests_.find(app);
  if (it == manifests_.end()) {
    return fwbase::Status::NotFound("no manifest published for '" + app + "'");
  }
  return it->second;
}

fwbase::Result<uint64_t> SnapshotRegistry::FetchChunk(uint64_t digest) const {
  auto it = chunk_bytes_.find(digest);
  if (it == chunk_bytes_.end()) {
    return fwbase::Status::NotFound("chunk not in registry");
  }
  return it->second;
}

}  // namespace fwstore
