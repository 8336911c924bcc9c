// SnapshotStore: on-disk home of VM snapshot files.
//
// §6 of the paper notes that with thousands of installed functions, snapshot
// files create disk-space pressure and suggests bounding the store with a
// replacement policy that keeps frequently-accessed snapshots. This store
// implements that suggestion: a byte-capacity budget with LRU (or FIFO, for
// the ablation bench) eviction of unpinned entries.
#ifndef FIREWORKS_SRC_STORAGE_SNAPSHOT_STORE_H_
#define FIREWORKS_SRC_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/base/status.h"
#include "src/mem/address_space.h"
#include "src/obs/observability.h"
#include "src/storage/block_device.h"

namespace fwfault {
class FaultInjector;
}  // namespace fwfault

namespace fwstore {

using fwbase::Result;
using fwbase::Status;

class SnapshotStore {
 public:
  enum class EvictionPolicy { kNone, kLru, kFifo };

  // `obs` keeps the hit/miss/eviction/save accounting ("store.snapshot.*"
  // metrics). `injector` may fail a Save with a write error (kUnavailable) or
  // a Get with a checksum mismatch (kDataLoss, entry dropped so callers can
  // re-install). Both must outlive the store.
  SnapshotStore(fwsim::Simulation& sim, BlockDevice& device, uint64_t capacity_bytes,
                fwobs::Observability& obs, fwfault::FaultInjector& injector,
                EvictionPolicy policy = EvictionPolicy::kLru);

  // Persists the image (paying the disk-write time for its file bytes),
  // evicting per policy if needed. Fails with kResourceExhausted when the
  // image cannot fit even after evicting everything unpinned.
  fwsim::Co<Status> Save(std::shared_ptr<fwmem::SnapshotImage> image);

  // Returns the image handle and refreshes recency. kNotFound if absent or
  // evicted (the caller must then re-install, i.e. re-create the snapshot).
  Result<std::shared_ptr<fwmem::SnapshotImage>> Get(const std::string& name);

  bool Contains(const std::string& name) const;
  // Pinned entries are never evicted (e.g. snapshots of currently-hot
  // functions).
  Status Pin(const std::string& name);
  Status Unpin(const std::string& name);
  Status Remove(const std::string& name);

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<fwmem::SnapshotImage> image;
    bool pinned = false;
    std::list<std::string>::iterator order_it;  // Position in order_ (front = next victim).
  };

  // Frees at least `needed` bytes; returns false if impossible.
  bool EvictFor(uint64_t needed);
  void TouchRecency(Entry& entry, const std::string& name);

  fwsim::Simulation& sim_;
  BlockDevice& device_;
  uint64_t capacity_bytes_;
  EvictionPolicy policy_;
  uint64_t used_bytes_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> order_;  // Eviction order, front is the next victim.
  fwobs::Counter& hit_counter_;
  fwobs::Counter& miss_counter_;
  fwobs::Counter& evict_counter_;
  fwobs::Counter& save_counter_;
  fwobs::Counter& corruption_counter_;
  fwobs::Gauge& used_bytes_gauge_;
  fwfault::FaultInjector& injector_;
};

}  // namespace fwstore

#endif  // FIREWORKS_SRC_STORAGE_SNAPSHOT_STORE_H_
