#include "src/mem/page_set.h"

#include <algorithm>

namespace fwmem {

PageSet::PageSet(uint64_t num_pages)
    : num_pages_(num_pages), words_((num_pages + kWordPages - 1) / kWordPages, 0) {}

void PageSet::Grow(uint64_t new_num_pages) {
  FW_CHECK(new_num_pages >= num_pages_);
  num_pages_ = new_num_pages;
  words_.resize((new_num_pages + kWordPages - 1) / kWordPages, 0);
}

void PageSet::SetRange(uint64_t first, uint64_t count) {
  ForEachWordIn(first, std::min(first + count, num_pages_),
                [this](uint64_t wi, uint64_t mask) { SetBits(wi, mask); });
}

void PageSet::ClearRange(uint64_t first, uint64_t count) {
  ForEachWordIn(first, std::min(first + count, num_pages_),
                [this](uint64_t wi, uint64_t mask) { ClearBits(wi, mask); });
}

void PageSet::ClearAll() {
  std::fill(words_.begin(), words_.end(), 0);
  count_ = 0;
}

uint64_t PageSet::CountRange(uint64_t first, uint64_t count) const {
  uint64_t n = 0;
  ForEachWordIn(first, std::min(first + count, num_pages_), [this, &n](uint64_t wi, uint64_t mask) {
    n += static_cast<uint64_t>(std::popcount(words_[wi] & mask));
  });
  return n;
}

void PageSet::UnionWith(const PageSet& other) {
  FW_CHECK(other.num_pages_ == num_pages_);
  uint64_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
    count += static_cast<uint64_t>(std::popcount(words_[i]));
  }
  count_ = count;
}

}  // namespace fwmem
