#include "src/storage/chunker.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/hash.h"

namespace fwstore {

std::vector<ChunkRef> SyntheticChunks(const std::string& key, uint64_t total_bytes,
                                      uint64_t chunk_bytes) {
  FW_CHECK(chunk_bytes > 0);
  std::vector<ChunkRef> refs;
  const uint64_t key_hash = fwbase::HashKey(key);
  uint64_t offset = 0;
  uint64_t index = 0;
  while (offset < total_bytes) {
    const uint64_t bytes = std::min(chunk_bytes, total_bytes - offset);
    ChunkRef ref;
    ref.bytes = bytes;
    // Mix (key, index, size) through the finalizer: equal layers chunk to
    // equal digests on every host; distinct layers or sizes diverge.
    ref.digest = fwbase::Fmix64(key_hash ^ (0x9E3779B97F4A7C15ull * (index + 1)) ^ bytes);
    refs.push_back(ref);
    offset += bytes;
    ++index;
  }
  return refs;
}

}  // namespace fwstore
