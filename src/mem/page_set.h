// PageSet: a dense bitmap over the pages of a memory region.
//
// The memory model tracks residency and CoW privatisation per 4 KiB page;
// PageSet is the underlying bit vector with the bulk operations those paths
// need (range set/clear, popcount, iteration over set bits) and word-level
// access for the fault engine, which works on 64 pages at a time.
#ifndef FIREWORKS_SRC_MEM_PAGE_SET_H_
#define FIREWORKS_SRC_MEM_PAGE_SET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/check.h"

namespace fwmem {

// Pages per bitmap word: word `i` holds pages [64 i, 64 i + 64), page 64 i in
// bit 0.
inline constexpr uint64_t kWordPages = 64;

// Mask of bits [lo, hi) of one word, 0 <= lo < hi <= 64. Every shift is by
// less than 64.
inline uint64_t BitRangeMask(uint64_t lo, uint64_t hi) {
  FW_DCHECK(lo < hi && hi <= kWordPages);
  const uint64_t below_hi = hi == kWordPages ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return below_hi & ~((uint64_t{1} << lo) - 1);
}

// Calls fn(word_index, mask) for each word overlapping pages [first, end),
// in ascending order, with `mask` selecting the overlap. No-op when empty.
template <typename Fn>
void ForEachWordIn(uint64_t first, uint64_t end, Fn&& fn) {
  if (first >= end) {
    return;
  }
  const uint64_t first_word = first / kWordPages;
  const uint64_t last_word = (end - 1) / kWordPages;
  for (uint64_t wi = first_word; wi <= last_word; ++wi) {
    const uint64_t lo = wi == first_word ? first % kWordPages : 0;
    const uint64_t hi = wi == last_word ? end - last_word * kWordPages : kWordPages;
    fn(wi, BitRangeMask(lo, hi));
  }
}

class PageSet {
 public:
  explicit PageSet(uint64_t num_pages);

  uint64_t size() const { return num_pages_; }

  // Grows the region (new pages start clear). Shrinking is not supported.
  void Grow(uint64_t new_num_pages);

  bool Test(uint64_t page) const {
    FW_DCHECK(page < num_pages_);
    return (words_[page / kWordPages] >> (page % kWordPages)) & 1;
  }
  void Set(uint64_t page) {
    FW_DCHECK(page < num_pages_);
    SetBits(page / kWordPages, uint64_t{1} << (page % kWordPages));
  }
  void Clear(uint64_t page) {
    FW_DCHECK(page < num_pages_);
    ClearBits(page / kWordPages, uint64_t{1} << (page % kWordPages));
  }

  // Sets/clears [first, first + count); clamps to the region size.
  void SetRange(uint64_t first, uint64_t count);
  void ClearRange(uint64_t first, uint64_t count);
  void ClearAll();

  // Number of set bits.
  uint64_t Count() const { return count_; }
  // Number of set bits in [first, first + count); clamps to the region size.
  uint64_t CountRange(uint64_t first, uint64_t count) const;

  // Word-level access (see kWordPages). Bits past size() are always clear.
  uint64_t num_words() const { return words_.size(); }
  uint64_t word(uint64_t i) const {
    FW_DCHECK(i < words_.size());
    return words_[i];
  }
  // word(i) |= mask and word(i) &= ~mask, keeping Count() exact. `mask` must
  // not name pages past size().
  void SetBits(uint64_t i, uint64_t mask) {
    FW_DCHECK(i < words_.size());
    count_ += static_cast<uint64_t>(std::popcount(mask & ~words_[i]));
    words_[i] |= mask;
  }
  void ClearBits(uint64_t i, uint64_t mask) {
    FW_DCHECK(i < words_.size());
    count_ -= static_cast<uint64_t>(std::popcount(mask & words_[i]));
    words_[i] &= ~mask;
  }

  // Calls fn(page) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (uint64_t wi = 0; wi < words_.size(); ++wi) {
      for (uint64_t w = words_[wi]; w != 0; w &= w - 1) {
        fn(wi * kWordPages + static_cast<uint64_t>(std::countr_zero(w)));
      }
    }
  }

  // this |= other (sizes must match).
  void UnionWith(const PageSet& other);

 private:
  uint64_t num_pages_;
  uint64_t count_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_PAGE_SET_H_
