#include "src/storage/snapshot_store.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/fault/fault.h"

namespace fwstore {

SnapshotStore::SnapshotStore(fwsim::Simulation& sim, BlockDevice& device,
                             uint64_t capacity_bytes, fwobs::Observability& obs,
                             fwfault::FaultInjector& injector, EvictionPolicy policy)
    : sim_(sim),
      device_(device),
      capacity_bytes_(capacity_bytes),
      policy_(policy),
      hit_counter_(obs.metrics().GetCounter("store.snapshot.hit.count")),
      miss_counter_(obs.metrics().GetCounter("store.snapshot.miss.count")),
      evict_counter_(obs.metrics().GetCounter("store.snapshot.evict.count")),
      save_counter_(obs.metrics().GetCounter("store.snapshot.save.count")),
      corruption_counter_(obs.metrics().GetCounter("store.snapshot.corruption.count")),
      used_bytes_gauge_(obs.metrics().GetGauge("store.snapshot.used_bytes")),
      injector_(injector) {}

bool SnapshotStore::EvictFor(uint64_t needed) {
  if (needed > capacity_bytes_) {
    return false;
  }
  while (used_bytes_ + needed > capacity_bytes_) {
    if (policy_ == EvictionPolicy::kNone) {
      return false;
    }
    // Find the first unpinned victim from the front of the order list.
    auto it = order_.begin();
    while (it != order_.end() && entries_.at(*it).pinned) {
      ++it;
    }
    if (it == order_.end()) {
      return false;
    }
    const std::string victim = *it;
    auto& entry = entries_.at(victim);
    used_bytes_ -= entry.image->file_bytes();
    order_.erase(entry.order_it);
    entries_.erase(victim);
    evict_counter_.Increment();
    used_bytes_gauge_.Set(static_cast<double>(used_bytes_));
    FW_LOG(kDebug) << "snapshot-store: evicted " << victim;
  }
  return true;
}

fwsim::Co<Status> SnapshotStore::Save(std::shared_ptr<fwmem::SnapshotImage> image) {
  const std::string name = image->name();
  if (entries_.count(name) != 0) {
    co_return Status::AlreadyExists("snapshot " + name + " already stored");
  }
  const uint64_t bytes = image->file_bytes();
  if (!EvictFor(bytes)) {
    co_return Status::ResourceExhausted("snapshot store full; cannot fit " + name);
  }
  // Pay the disk write for the memory file + a small vmstate file. The file
  // was just written, so its pages are warm in the host page cache.
  co_await device_.Write(bytes);
  if (injector_.Trip(fwfault::FaultKind::kDiskWriteError)) {
    co_return Status::Unavailable("snapshot store: write error persisting " + name);
  }
  image->set_cache_warm(true);
  order_.push_back(name);
  auto it = std::prev(order_.end());
  entries_.emplace(name, Entry{std::move(image), /*pinned=*/false, it});
  used_bytes_ += bytes;
  save_counter_.Increment();
  used_bytes_gauge_.Set(static_cast<double>(used_bytes_));
  co_return Status::Ok();
}

void SnapshotStore::TouchRecency(Entry& entry, const std::string& name) {
  if (policy_ != EvictionPolicy::kLru) {
    return;  // FIFO/none ignore access recency.
  }
  order_.erase(entry.order_it);
  order_.push_back(name);
  entry.order_it = std::prev(order_.end());
}

Result<std::shared_ptr<fwmem::SnapshotImage>> SnapshotStore::Get(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    miss_counter_.Increment();
    return Status::NotFound("snapshot " + name + " not in store");
  }
  if (injector_.Trip(fwfault::FaultKind::kSnapshotCorruption)) {
    // Checksum mismatch: the on-disk file is garbage. Drop the entry so the
    // caller's re-install path can Save a fresh copy under the same name.
    corruption_counter_.Increment();
    used_bytes_ -= it->second.image->file_bytes();
    order_.erase(it->second.order_it);
    entries_.erase(it);
    used_bytes_gauge_.Set(static_cast<double>(used_bytes_));
    return Status::DataLoss("snapshot " + name + " failed checksum verification");
  }
  hit_counter_.Increment();
  TouchRecency(it->second, name);
  return it->second.image;
}

bool SnapshotStore::Contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

Status SnapshotStore::Pin(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("snapshot " + name + " not in store");
  }
  it->second.pinned = true;
  return Status::Ok();
}

Status SnapshotStore::Unpin(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("snapshot " + name + " not in store");
  }
  it->second.pinned = false;
  return Status::Ok();
}

Status SnapshotStore::Remove(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("snapshot " + name + " not in store");
  }
  used_bytes_ -= it->second.image->file_bytes();
  order_.erase(it->second.order_it);
  entries_.erase(it);
  used_bytes_gauge_.Set(static_cast<double>(used_bytes_));
  return Status::Ok();
}

}  // namespace fwstore
