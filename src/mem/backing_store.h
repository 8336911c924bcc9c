// BackingStore: host-page-cache residency for shared, file-backed content.
//
// A snapshot image mapped MAP_PRIVATE into N microVMs is backed by one file;
// each image page that any mapper has faulted in occupies exactly one host
// frame (in the page cache) regardless of how many mappers reference it.
// BackingStore tracks the per-page reference count so PSS can charge each
// mapper 1/refs for shared pages, exactly like Linux's smem accounting in §5.4.
//
// References change one bitmap word (64 pages) at a time; the host frames
// they imply are charged in bulk by Settle(), which a mapper calls once per
// access or unmap.
#ifndef FIREWORKS_SRC_MEM_BACKING_STORE_H_
#define FIREWORKS_SRC_MEM_BACKING_STORE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/mem/host_memory.h"
#include "src/mem/page_set.h"

namespace fwmem {

// kLaneBits[b] = 1 << b: the bit of lane b in one 32-page half of a bitmap
// word. A table rather than a shift, because SSE2 has no per-lane variable
// shift; with it, the count loops below vectorize at every x86-64 level.
alignas(64) inline constexpr std::array<uint32_t, 32> kLaneBits = [] {
  std::array<uint32_t, 32> bits{};
  for (uint32_t b = 0; b < 32; ++b) {
    bits[b] = uint32_t{1} << b;
  }
  return bits;
}();

// A mask with at most this many pages is sparse: its counts change one set
// bit at a time (the 2-4% guest-OS picks average ~2.5 pages a word).
inline constexpr int kSparseWordPages = 8;

// The reference counts of one bitmap word, refs[0..63], changed by one for
// each page in `mask` (page 64 wi + b in bit b, see kWordPages). A dense
// mask runs a branch-free fixed-trip loop over the uint32_t counts, one
// 32-lane half at a time, which GCC vectorizes. Always inlined, so each
// compiles at the ISA of its caller (FW_MEM_ISA_CLONES, src/mem/page_pick.h).
//
// IncRefsWord returns how many counts in `mask` were 0 before.
[[gnu::always_inline]] inline uint64_t IncRefsWord(uint32_t* refs, uint64_t mask) {
  uint32_t first = 0;
  if (std::popcount(mask) <= kSparseWordPages) {
    for (uint64_t w = mask; w != 0; w &= w - 1) {
      uint32_t& count = refs[std::countr_zero(w)];
      first += static_cast<uint32_t>(count == 0);
      ++count;
    }
    return first;
  }
  for (uint64_t half = 0; half < kWordPages; half += 32) {
    const uint32_t bits = static_cast<uint32_t>(mask >> half);
    uint32_t* lane = refs + half;
    for (uint32_t b = 0; b < 32; ++b) {
      const uint32_t in = (bits & kLaneBits[b]) != 0;
      first += in & static_cast<uint32_t>(lane[b] == 0);
      lane[b] += in;
    }
  }
  return first;
}
// DecRefsWord returns how many counts in `mask` reach 0, and sets `empty` to
// how many were 0 already (and wrap; the caller checks that none were).
[[gnu::always_inline]] inline uint64_t DecRefsWord(uint32_t* refs, uint64_t mask,
                                                   uint64_t& empty) {
  uint32_t last = 0;
  uint32_t none = 0;
  if (std::popcount(mask) <= kSparseWordPages) {
    for (uint64_t w = mask; w != 0; w &= w - 1) {
      uint32_t& count = refs[std::countr_zero(w)];
      last += static_cast<uint32_t>(count == 1);
      none += static_cast<uint32_t>(count == 0);
      --count;
    }
    empty = none;
    return last;
  }
  for (uint64_t half = 0; half < kWordPages; half += 32) {
    const uint32_t bits = static_cast<uint32_t>(mask >> half);
    uint32_t* lane = refs + half;
    for (uint32_t b = 0; b < 32; ++b) {
      const uint32_t in = (bits & kLaneBits[b]) != 0;
      last += in & static_cast<uint32_t>(lane[b] == 1);
      none += in & static_cast<uint32_t>(lane[b] == 0);
      lane[b] -= in;
    }
  }
  empty = none;
  return last;
}

class BackingStore {
 public:
  BackingStore(HostMemory& host, uint64_t num_pages);
  ~BackingStore();

  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  uint64_t num_pages() const { return num_pages_; }

  // Registers one more mapping referencing each page in `mask` of bitmap
  // word `wi`. Returns how many of those pages were not resident before:
  // major faults, whose content came from disk and needs a host frame,
  // charged by the next Settle(). Always inlined (see IncRefsWord).
  [[gnu::always_inline]] uint64_t IncWord(uint64_t wi, uint64_t mask) {
    if (mask == 0) {
      return 0;
    }
    CheckWord(wi, mask);
    const uint64_t first = IncRefsWord(refs_.data() + wi * kWordPages, mask);
    resident_pages_ += first;
    pending_allocs_ += first;
    return first;
  }
  // Drops one reference from each page in `mask` of word `wi`; returns how
  // many went non-resident. Their frames are freed by the next Settle().
  [[gnu::always_inline]] uint64_t DecWord(uint64_t wi, uint64_t mask) {
    if (mask == 0) {
      return 0;
    }
    CheckWord(wi, mask);
    uint64_t empty = 0;
    const uint64_t last = DecRefsWord(refs_.data() + wi * kWordPages, mask, empty);
    FW_CHECK_MSG(empty == 0, "DecResident on non-resident page");
    resident_pages_ -= last;
    pending_frees_ += last;
    return last;
  }
  // One-page forms: IncResident returns true for a major fault.
  bool IncResident(uint64_t page) { return IncWord(page / kWordPages, PageBit(page)) != 0; }
  void DecResident(uint64_t page) { DecWord(page / kWordPages, PageBit(page)); }
  // Charges the host for the residency changes since the last Settle():
  // frees first, then allocations.
  void Settle();

  uint32_t ResidentRefs(uint64_t page) const {
    FW_CHECK(page < num_pages_);
    return refs_[page];
  }
  // Pages currently resident in the page cache (refs > 0).
  uint64_t resident_pages() const { return resident_pages_; }

 private:
  static uint64_t PageBit(uint64_t page) { return uint64_t{1} << (page % kWordPages); }
  // The highest page in a non-empty `mask` of word `wi` is below num_pages().
  void CheckWord(uint64_t wi, uint64_t mask) const {
    FW_CHECK(wi * kWordPages + static_cast<uint64_t>(std::bit_width(mask)) <= num_pages_);
  }

  HostMemory& host_;
  uint64_t num_pages_;
  // One count per page, padded to whole words so a word loop reads 64.
  std::vector<uint32_t> refs_;
  uint64_t resident_pages_ = 0;
  // Frame changes not yet charged to the host (see Settle()).
  uint64_t pending_allocs_ = 0;
  uint64_t pending_frees_ = 0;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_BACKING_STORE_H_
