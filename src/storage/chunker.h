// Content-addressed snapshot chunking (the distribution tier's unit of
// transfer and dedup).
//
// SyntheticChunks cuts a layer into fixed-size chunk refs whose digests derive
// from the layer key and chunk index. Simulated snapshot images carry no
// content, but identical layers (the shared base runtime) must still produce
// identical digests on every host so dedup and peer fetch work; deriving the
// digest from (key, index, size) gives exactly that.
//
// Digests derive from fwbase::HashKey of the key, mixed with the index and
// size through the same fmix64 finalizer: chunk digests feed ordered maps
// and cache keys everywhere, so they need its avalanche.
#ifndef FIREWORKS_SRC_STORAGE_CHUNKER_H_
#define FIREWORKS_SRC_STORAGE_CHUNKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fwstore {

// One chunk of a layer: content address + size. The digest is the identity —
// two refs with equal digests are assumed to carry equal bytes.
struct ChunkRef {
  uint64_t digest = 0;
  uint64_t bytes = 0;

  bool operator==(const ChunkRef& o) const {
    return digest == o.digest && bytes == o.bytes;
  }
};

// Deterministic chunk refs for a content-less simulated layer: `total_bytes`
// of layer `key` cut into fixed `chunk_bytes` pieces (last chunk takes the
// remainder). Digest = f(key, index, size): equal layers agree everywhere,
// distinct layers collide nowhere (modulo 64-bit hash collisions).
std::vector<ChunkRef> SyntheticChunks(const std::string& key, uint64_t total_bytes,
                                      uint64_t chunk_bytes);

}  // namespace fwstore

#endif  // FIREWORKS_SRC_STORAGE_CHUNKER_H_
