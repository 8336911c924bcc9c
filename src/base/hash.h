// The tree's one string hash: FNV-1a folded through murmur3's fmix64
// finalizer. FNV-1a alone barely diffuses the upper bits of short inputs
// ("app-0".."app-63" all land in the top sixth of the 64-bit range), which
// skews consistent-hash placement; the finalizer restores avalanche.
//
// Ring placement, snapshot chunk digests and every golden and replay digest
// built on them depend on these values never drifting (HashKeyTest and
// SyntheticChunksTest pin them).
#ifndef FIREWORKS_SRC_BASE_HASH_H_
#define FIREWORKS_SRC_BASE_HASH_H_

#include <cstdint>
#include <string_view>

namespace fwbase {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

// One FNV-1a step: folds `v` into `h`. A byte for strings; a whole word for
// digests of integer sequences.
constexpr uint64_t FnvMix(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ull; }

// FNV-1a over `bytes`, unfinalized.
constexpr uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = kFnvOffsetBasis;
  for (const unsigned char c : bytes) {
    h = FnvMix(h, c);
  }
  return h;
}

// murmur3's 64-bit finalizer.
constexpr uint64_t Fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// FNV-1a + fmix64 over `bytes`.
constexpr uint64_t HashKey(std::string_view bytes) { return Fmix64(Fnv1a(bytes)); }

}  // namespace fwbase

#endif  // FIREWORKS_SRC_BASE_HASH_H_
