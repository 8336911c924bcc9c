#include "src/storage/manifest.h"

#include <utility>

#include "src/base/check.h"
// The JSON codec is a leaf utility with no dependency back into storage; the
// manifest wire format is defined here so every consumer (registry, cluster,
// tools) parses one schema.
#include "src/lang/json.h"  // fwlint:allow(layering)

namespace fwstore {

namespace {

using fwlang::JsonValue;

JsonValue U64(uint64_t v) { return JsonValue(static_cast<double>(v)); }

// 64-bit digests exceed a double's 53-bit integer range, so they travel as
// fixed-width hex strings.
std::string HexU64(uint64_t v) {
  char buf[17];
  static const char* kHex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = kHex[(v >> (i * 4)) & 0xF];
  }
  buf[16] = '\0';
  return buf;
}

bool ParseHexU64(const std::string& s, uint64_t* out) {
  if (s.size() != 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *out = v;
  return true;
}

fwbase::Status Malformed(const std::string& what) {
  return fwbase::Status::InvalidArgument("snapshot manifest: " + what);
}

}  // namespace

const char* LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kBase:
      return "base";
    case LayerKind::kDelta:
      return "delta";
  }
  return "?";
}

uint64_t LayerManifest::bytes() const {
  uint64_t total = 0;
  for (const ChunkRef& c : chunks) {
    total += c.bytes;
  }
  return total;
}

uint64_t SnapshotManifest::total_chunks() const {
  uint64_t total = 0;
  for (const LayerManifest& layer : layers) {
    total += layer.chunks.size();
  }
  return total;
}

uint64_t SnapshotManifest::working_set_pages() const {
  uint64_t total = 0;
  for (const PageRange& r : working_set) {
    total += r.count;
  }
  return total;
}

std::string SnapshotManifest::ToJson() const {
  JsonValue::Object root;
  root["schema"] = JsonValue(std::string("fwsnap-manifest/1"));
  root["app"] = JsonValue(app);
  root["image_bytes"] = U64(image_bytes);
  root["working_set_bytes"] = U64(working_set_bytes);

  JsonValue::Array layer_array;
  for (const LayerManifest& layer : layers) {
    JsonValue::Object lo;
    lo["key"] = JsonValue(layer.key);
    lo["kind"] = JsonValue(std::string(LayerKindName(layer.kind)));
    JsonValue::Array chunk_array;
    for (const ChunkRef& c : layer.chunks) {
      JsonValue::Object co;
      co["digest"] = JsonValue(HexU64(c.digest));
      co["bytes"] = U64(c.bytes);
      chunk_array.push_back(JsonValue(std::move(co)));
    }
    lo["chunks"] = JsonValue(std::move(chunk_array));
    layer_array.push_back(JsonValue(std::move(lo)));
  }
  root["layers"] = JsonValue(std::move(layer_array));

  JsonValue::Array ws_array;
  for (const PageRange& r : working_set) {
    JsonValue::Object ro;
    ro["first"] = U64(r.first);
    ro["count"] = U64(r.count);
    ws_array.push_back(JsonValue(std::move(ro)));
  }
  root["working_set"] = JsonValue(std::move(ws_array));

  return fwlang::JsonToString(JsonValue(std::move(root)));
}

fwbase::Result<SnapshotManifest> SnapshotManifest::Parse(const std::string& text) {
  auto parsed = fwlang::ParseJson(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Malformed("document is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "fwsnap-manifest/1") {
    return Malformed("missing or unknown schema");
  }

  SnapshotManifest m;
  const JsonValue* app = root.Find("app");
  if (app == nullptr || !app->is_string()) {
    return Malformed("missing app");
  }
  m.app = app->AsString();
  // Numbers in the manifest are byte/page counts (fwlang::JsonCount).
  auto image_bytes = fwlang::JsonCount(root.Find("image_bytes"));
  if (!image_bytes.ok()) {
    return Malformed("image_bytes: " + image_bytes.status().message());
  }
  m.image_bytes = *image_bytes;
  auto working_set_bytes = fwlang::JsonCount(root.Find("working_set_bytes"));
  if (!working_set_bytes.ok()) {
    return Malformed("working_set_bytes: " + working_set_bytes.status().message());
  }
  m.working_set_bytes = *working_set_bytes;

  const JsonValue* layers = root.Find("layers");
  if (layers == nullptr || !layers->is_array()) {
    return Malformed("missing layers");
  }
  for (const JsonValue& lv : layers->AsArray()) {
    if (!lv.is_object()) {
      return Malformed("layer is not an object");
    }
    LayerManifest layer;
    const JsonValue* key = lv.Find("key");
    if (key == nullptr || !key->is_string()) {
      return Malformed("layer missing key");
    }
    layer.key = key->AsString();
    const JsonValue* kind = lv.Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return Malformed("layer missing kind");
    }
    if (kind->AsString() == "base") {
      layer.kind = LayerKind::kBase;
    } else if (kind->AsString() == "delta") {
      layer.kind = LayerKind::kDelta;
    } else {
      return Malformed("unknown layer kind '" + kind->AsString() + "'");
    }
    const JsonValue* chunks = lv.Find("chunks");
    if (chunks == nullptr || !chunks->is_array()) {
      return Malformed("layer missing chunks");
    }
    for (const JsonValue& cv : chunks->AsArray()) {
      if (!cv.is_object()) {
        return Malformed("chunk is not an object");
      }
      ChunkRef ref;
      const JsonValue* digest = cv.Find("digest");
      if (digest == nullptr || !digest->is_string() ||
          !ParseHexU64(digest->AsString(), &ref.digest)) {
        return Malformed("chunk digest is not a 16-hex-digit string");
      }
      auto bytes = fwlang::JsonCount(cv.Find("bytes"));
      if (!bytes.ok()) {
        return Malformed("chunk bytes: " + bytes.status().message());
      }
      ref.bytes = *bytes;
      layer.chunks.push_back(ref);
    }
    m.layers.push_back(std::move(layer));
  }

  const JsonValue* ws = root.Find("working_set");
  if (ws == nullptr || !ws->is_array()) {
    return Malformed("missing working_set");
  }
  for (const JsonValue& rv : ws->AsArray()) {
    if (!rv.is_object()) {
      return Malformed("working-set range is not an object");
    }
    auto first = fwlang::JsonCount(rv.Find("first"));
    auto count = fwlang::JsonCount(rv.Find("count"));
    if (!first.ok() || !count.ok()) {
      return Malformed("working-set range needs counts first and count");
    }
    m.working_set.push_back(PageRange{*first, *count});
  }
  return m;
}

}  // namespace fwstore
