// BackingStore: host-page-cache residency for shared, file-backed content.
//
// A snapshot image mapped MAP_PRIVATE into N microVMs is backed by one file;
// each image page that any mapper has faulted in occupies exactly one host
// frame (in the page cache) regardless of how many mappers reference it.
// BackingStore tracks the per-page reference count so PSS can charge each
// mapper 1/refs for shared pages, exactly like Linux's smem accounting in §5.4.
//
// Reference changes are per page; the host frames they imply are charged in
// bulk by Settle(), which a mapper calls once per access or unmap.
#ifndef FIREWORKS_SRC_MEM_BACKING_STORE_H_
#define FIREWORKS_SRC_MEM_BACKING_STORE_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/mem/host_memory.h"

namespace fwmem {

class BackingStore {
 public:
  BackingStore(HostMemory& host, uint64_t num_pages);
  ~BackingStore();

  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  uint64_t num_pages() const { return refs_.size(); }

  // Registers one more mapping referencing `page`. Returns true when the page
  // was not resident before (a major fault: the content came from disk and
  // needs a host frame, charged by the next Settle()).
  bool IncResident(uint64_t page) {
    FW_CHECK(page < refs_.size());
    const bool first = refs_[page]++ == 0;
    if (first) {
      ++resident_pages_;
      ++pending_allocs_;
    }
    return first;
  }
  // Drops one reference; the frame of a page whose last mapper went away is
  // freed by the next Settle().
  void DecResident(uint64_t page) {
    FW_CHECK(page < refs_.size());
    FW_CHECK_MSG(refs_[page] > 0, "DecResident on non-resident page");
    if (--refs_[page] == 0) {
      --resident_pages_;
      ++pending_frees_;
    }
  }
  // Charges the host for the residency changes since the last Settle():
  // frees first, then allocations.
  void Settle();

  uint32_t ResidentRefs(uint64_t page) const {
    FW_CHECK(page < refs_.size());
    return refs_[page];
  }
  // Pages currently resident in the page cache (refs > 0).
  uint64_t resident_pages() const { return resident_pages_; }

 private:
  HostMemory& host_;
  std::vector<uint32_t> refs_;
  uint64_t resident_pages_ = 0;
  // Frame changes not yet charged to the host (see Settle()).
  uint64_t pending_allocs_ = 0;
  uint64_t pending_frees_ = 0;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_BACKING_STORE_H_
