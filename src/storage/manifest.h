// Snapshot manifest: the registry's unit of publication.
//
// A manifest describes one app's post-JIT snapshot as a stack of
// content-addressed layers — a base runtime layer shared by every app on the
// same runtime (kernel + guest OS + JIT runtime segments) plus a small
// per-app delta (the app's code, its JITted methods, its heap) — and carries
// the REAP working set: the guest pages a first invocation actually touched,
// persisted as page ranges so a restoring host can prefetch exactly those
// pages instead of the whole file (Ustiugov et al.).
//
// The wire format is fwlang JSON (ToJson/Parse round-trip byte-stably: keys
// are emitted sorted, numbers are integral). Names are quoted by
// fwbase::JsonQuote: a control byte is written as \u00XX and parses back
// byte-exactly, but a byte that is not valid UTF-8 is written the same way
// and parses back as the code point U+00XX.
#ifndef FIREWORKS_SRC_STORAGE_MANIFEST_H_
#define FIREWORKS_SRC_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/storage/chunker.h"

namespace fwstore {

// A run of guest pages [first, first + count), for working-set persistence.
struct PageRange {
  uint64_t first = 0;
  uint64_t count = 0;

  bool operator==(const PageRange& o) const {
    return first == o.first && count == o.count;
  }
};

enum class LayerKind { kBase, kDelta };

const char* LayerKindName(LayerKind kind);

// One content-addressed layer of a snapshot image. Layers with equal keys
// carry equal chunk lists (the shared-base dedup invariant).
struct LayerManifest {
  std::string key;  // e.g. "base/nodejs" (shared) or "delta/app-7" (per-app).
  LayerKind kind = LayerKind::kDelta;
  std::vector<ChunkRef> chunks;

  uint64_t bytes() const;
};

struct SnapshotManifest {
  std::string app;
  // Full restored image size (sum of layer bytes).
  uint64_t image_bytes = 0;
  std::vector<LayerManifest> layers;
  // Pages a first invocation touched from the image, as sorted ranges.
  std::vector<PageRange> working_set;
  uint64_t working_set_bytes = 0;

  uint64_t total_chunks() const;
  uint64_t working_set_pages() const;

  std::string ToJson() const;
  static fwbase::Result<SnapshotManifest> Parse(const std::string& text);
};

}  // namespace fwstore

#endif  // FIREWORKS_SRC_STORAGE_MANIFEST_H_
