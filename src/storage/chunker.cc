#include "src/storage/chunker.h"

#include <algorithm>

#include "src/base/check.h"

namespace fwstore {

namespace {

uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;  // FNV prime.
  }
  return h;
}

uint64_t Finalize(uint64_t h) {
  // Murmur3 finalizer: restores avalanche that FNV-1a lacks on short inputs.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t HashBytes(const uint8_t* data, size_t len) {
  return Finalize(Fnv1a(data, len, 0xcbf29ce484222325ull));
}

uint64_t HashBytes(const std::string& bytes) {
  return HashBytes(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

std::vector<ChunkRef> SyntheticChunks(const std::string& key, uint64_t total_bytes,
                                      uint64_t chunk_bytes) {
  FW_CHECK(chunk_bytes > 0);
  std::vector<ChunkRef> refs;
  const uint64_t key_hash = HashBytes(key);
  uint64_t offset = 0;
  uint64_t index = 0;
  while (offset < total_bytes) {
    const uint64_t bytes = std::min(chunk_bytes, total_bytes - offset);
    ChunkRef ref;
    ref.bytes = bytes;
    // Mix (key, index, size) through the finalizer: equal layers chunk to
    // equal digests on every host; distinct layers or sizes diverge.
    uint64_t h = key_hash ^ (0x9E3779B97F4A7C15ull * (index + 1)) ^ bytes;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    ref.digest = h;
    refs.push_back(ref);
    offset += bytes;
    ++index;
  }
  return refs;
}

}  // namespace fwstore
