// Page picks of the fault engine: which pages of a segment a random-fraction
// access (AddressSpace::TouchRandomFraction / DirtyRandomFraction) reads or
// writes. Private to src/mem; its unit tests and micro-benchmarks include it
// to check and time the pick on its own.
//
// Page p is picked when MixPage(salt, p) < FractionThreshold(fraction); a
// fraction of 1 picks every page.
//
// FW_MEM_ISA_CLONES marks the fault engine's word loops (DESIGN.md §3). With
// GCC on x86-64 it compiles each marked function three times, for
// x86-64-v4 (AVX-512), x86-64-v3 (AVX2, BMI, POPCNT) and the baseline ISA,
// with the calls inside it inlined (flatten), and the loader picks the
// clone the CPU runs. Every clone does the same integer work, so picks,
// fault counts and refcounts are identical on every CPU. Elsewhere the
// macro is empty.
#ifndef FIREWORKS_SRC_MEM_PAGE_PICK_H_
#define FIREWORKS_SRC_MEM_PAGE_PICK_H_

#include <cstdint>

#include "src/mem/page_set.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FW_MEM_ISA_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default"), flatten))
#else
#define FW_MEM_ISA_CLONES
#endif

namespace fwmem {

// Converts a fraction in [0,1] to a strict-less-than hash threshold. The
// double→u64 cast of 1.0 * 2^64 would overflow, so saturate explicitly.
inline uint64_t FractionThreshold(double fraction) {
  if (fraction >= 1.0) {
    return UINT64_MAX;
  }
  return static_cast<uint64_t>(fraction * 18446744073709551616.0 /* 2^64 */);
}

// Deterministic per-page hash used to pick pseudo-random page subsets.
// MixPage and PickWord are always inlined, so each compiles at the ISA of
// its caller.
[[gnu::always_inline]] inline uint64_t MixPage(uint64_t salt, uint64_t page) {
  uint64_t z = salt ^ (page * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The pages of bitmap word `wi` a random-fraction access picks: page p is
// picked when MixPage(salt, p) < threshold, or always for fraction 1
// (threshold UINT64_MAX, which a strict less-than would miss for one hash).
// The 64-hash loop has a fixed trip count and no early exit, so it
// vectorizes: 8 pages per step in the x86-64-v4 clone.
[[gnu::always_inline]] inline uint64_t PickWord(uint64_t salt, uint64_t threshold,
                                                uint64_t wi) {
  if (threshold == UINT64_MAX) {
    return ~uint64_t{0};
  }
  if (threshold == 0) {
    return 0;
  }
  const uint64_t page0 = wi * kWordPages;
  uint64_t picked = 0;
  for (uint64_t bit = 0; bit < kWordPages; ++bit) {
    picked |= static_cast<uint64_t>(MixPage(salt, page0 + bit) < threshold) << bit;
  }
  return picked;
}

// out[i] = PickWord(salt, threshold, first_word + i) for i < words, at the
// host's ISA (FW_MEM_ISA_CLONES).
void PickWords(uint64_t salt, uint64_t threshold, uint64_t first_word, uint64_t words,
               uint64_t* out);

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_PAGE_PICK_H_
