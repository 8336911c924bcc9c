#include "src/mem/backing_store.h"

namespace fwmem {

BackingStore::BackingStore(HostMemory& host, uint64_t num_pages)
    : host_(host),
      num_pages_(num_pages),
      refs_((num_pages + kWordPages - 1) / kWordPages * kWordPages, 0) {}

BackingStore::~BackingStore() {
  // All mappings must unmap before the store dies; release whatever remains
  // resident (the page cache is dropped with the file).
  Settle();
  host_.FreeFrames(resident_pages_);
}

void BackingStore::Settle() {
  if (pending_frees_ > 0) {
    host_.FreeFrames(pending_frees_);
    pending_frees_ = 0;
  }
  if (pending_allocs_ > 0) {
    host_.AllocFrames(pending_allocs_);
    pending_allocs_ = 0;
  }
}

}  // namespace fwmem
