#include "src/cluster/snapshot_distribution.h"

#include <utility>

#include "src/base/check.h"
#include "src/lang/runtime_model.h"
#include "src/storage/block_device.h"
#include "src/storage/chunker.h"
#include "src/storage/manifest.h"

namespace fwcluster {

using fwbase::Duration;
using fwbase::Status;
using fwstore::ChunkRef;
using fwstore::LayerKind;
using fwstore::LayerManifest;
using fwstore::SnapshotManifest;

namespace {

// The runtime every app's base layer holds.
constexpr fwlang::Language kBaseRuntime = fwlang::Language::kNodeJs;
// Synthetic REAP working set: the fraction of the image the recording
// invocation touched.
constexpr double kWorkingSetFraction = 0.35;
constexpr Duration kRetryBackoff = Duration::Millis(5);
// Working-set restore without prefetch: the per-page random read a demand
// fault pays (a prefetch reads the set at fwstore::kSequentialBytesPerSec).
constexpr Duration kDemandFaultRead = Duration::Micros(12);

static_assert(SnapshotDistribution::kMaxFetchAttempts >= 1);

bool TestBit(const std::vector<uint8_t>& bits, AppId app) {
  return app < bits.size() && bits[app] != 0;
}

void SetBit(std::vector<uint8_t>& bits, AppId app) {
  if (app >= bits.size()) {
    bits.resize(static_cast<size_t>(app) + 1, 0);
  }
  bits[app] = 1;
}

}  // namespace

SnapshotDistribution::SnapshotDistribution(fwsim::Simulation& sim, const AppTable& apps,
                                           int num_hosts, const DistributionConfig& config,
                                           fwobs::Observability& obs,
                                           fwfault::FaultInjector& injector)
    : sim_(sim),
      apps_(apps),
      config_(config),
      obs_(obs),
      injector_(injector),
      fabric_(sim),
      holds_(static_cast<size_t>(num_hosts)),
      warm_(static_cast<size_t>(num_hosts)),
      generations_(static_cast<size_t>(num_hosts), 0) {
  FW_CHECK(num_hosts > 0);
  FW_CHECK(config.chunk_bytes > 0);
  for (int h = 0; h < num_hosts; ++h) {
    caches_.push_back(std::make_unique<fwstore::ChunkCache>(config.cache_budget_bytes));
  }
}

void SnapshotDistribution::Publish(AppId app, int seed_host) {
  const std::string& name = apps_.name(app);
  SnapshotManifest m;
  m.app = name;
  const uint64_t image_bytes = config_.base_layer_bytes + config_.delta_layer_bytes;
  m.image_bytes = image_bytes;
  if (config_.layered) {
    LayerManifest base;
    base.key = std::string("base/") + fwlang::LanguageName(kBaseRuntime);
    base.kind = LayerKind::kBase;
    base.chunks =
        fwstore::SyntheticChunks(base.key, config_.base_layer_bytes, config_.chunk_bytes);
    m.layers.push_back(std::move(base));
    LayerManifest delta;
    delta.key = "delta/" + name;
    delta.kind = LayerKind::kDelta;
    delta.chunks =
        fwstore::SyntheticChunks(delta.key, config_.delta_layer_bytes, config_.chunk_bytes);
    m.layers.push_back(std::move(delta));
  } else {
    LayerManifest whole;
    whole.key = "image/" + name;
    whole.kind = LayerKind::kDelta;
    whole.chunks = fwstore::SyntheticChunks(whole.key, image_bytes, config_.chunk_bytes);
    m.layers.push_back(std::move(whole));
  }
  // Synthetic REAP working set: the recording invocation touched this
  // fraction of the image, as one dense range from the start (snapshot files
  // are laid out restore-order-first).
  const uint64_t ws_pages = static_cast<uint64_t>(
      kWorkingSetFraction * static_cast<double>(fwbase::PagesFor(image_bytes)));
  if (ws_pages > 0) {
    m.working_set.push_back(fwstore::PageRange{0, ws_pages});
    m.working_set_bytes = ws_pages * fwbase::kPageSize;
  }

  // Round-trip the wire format so every publish exercises the JSON codec the
  // registry protocol actually ships.
  auto parsed = SnapshotManifest::Parse(m.ToJson());
  FW_CHECK_MSG(parsed.ok(), "snapshot manifest failed its own wire round-trip");
  registry_.Publish(*parsed);

  if (seed_host >= 0 && seed_host < static_cast<int>(holds_.size())) {
    // The publishing host produced the snapshot locally: it holds the image
    // and its chunks are in its cache, ready to serve peers.
    AdoptLocal(seed_host, app);
    for (const LayerManifest& layer : parsed->layers) {
      for (const ChunkRef& c : layer.chunks) {
        InsertChunk(seed_host, c);
      }
    }
  }
}

bool SnapshotDistribution::Holds(int host, AppId app) const {
  return TestBit(holds_[static_cast<size_t>(host)], app);
}

bool SnapshotDistribution::Warm(int host, AppId app) const {
  return TestBit(warm_[static_cast<size_t>(host)], app);
}

void SnapshotDistribution::AdoptLocal(int host, AppId app) {
  SetBit(holds_[static_cast<size_t>(host)], app);
  // A locally-produced (or cold-booted) image is page-cache hot: no restore
  // warm-up needed.
  SetBit(warm_[static_cast<size_t>(host)], app);
}

void SnapshotDistribution::OnHostRestart(int host) {
  warm_[static_cast<size_t>(host)].clear();
}

void SnapshotDistribution::AddHost() {
  caches_.push_back(std::make_unique<fwstore::ChunkCache>(config_.cache_budget_bytes));
  holds_.emplace_back();
  warm_.emplace_back();
  generations_.push_back(0);
}

void SnapshotDistribution::InsertChunk(int host, const ChunkRef& chunk) {
  if (config_.cache_budget_bytes == 0) {
    return;
  }
  fwstore::ChunkCache& cache = *caches_[static_cast<size_t>(host)];
  const std::vector<uint64_t> evicted = cache.Insert(chunk.digest, chunk.bytes);
  stats_.cache_evictions += evicted.size();
  for (uint64_t d : evicted) {
    auto it = chunk_holders_.find(d);
    if (it != chunk_holders_.end()) {
      it->second.erase(host);
      if (it->second.empty()) {
        chunk_holders_.erase(it);
      }
    }
  }
  if (cache.Contains(chunk.digest)) {
    chunk_holders_[chunk.digest].insert(host);
  }
}

int SnapshotDistribution::PickPeer(int host, uint64_t digest) const {
  auto it = chunk_holders_.find(digest);
  if (it == chunk_holders_.end()) {
    return -1;
  }
  for (int h : it->second) {
    if (h != host) {
      return h;  // std::set iterates ascending: lowest-index holder wins.
    }
  }
  return -1;
}

fwsim::Co<fwbase::Result<bool>> SnapshotDistribution::FetchChunk(
    int host, const ChunkRef& chunk) {
  // 1. Local cache (free): the shared base layer makes this the common case
  // for every app after the host's first pull on the same runtime.
  if (config_.cache_budget_bytes > 0 &&
      caches_[static_cast<size_t>(host)]->Lookup(chunk.digest)) {
    ++stats_.chunks_from_cache;
    stats_.bytes_from_cache += chunk.bytes;
    co_return false;
  }

  // 2. A peer holding the chunk (rack-local). A corrupt peer transfer is not
  // retried against the peer — the registry holds ground truth.
  if (config_.peer_fetch) {
    const int peer = PickPeer(host, chunk.digest);
    if (peer >= 0) {
      co_await fabric_.PeerTransfer(chunk.bytes);
      if (injector_.Trip(fwfault::FaultKind::kChunkCorruption)) {
        ++stats_.corrupt_chunks;
      } else {
        InsertChunk(host, chunk);
        ++stats_.chunks_from_peer;
        stats_.bytes_from_peer += chunk.bytes;
        co_return true;
      }
    }
  }

  // 3. The registry, with bounded deterministic-backoff retries.
  for (int attempt = 1; attempt <= kMaxFetchAttempts; ++attempt) {
    if (attempt > 1) {
      ++stats_.retries;
      co_await fwsim::Delay(sim_, kRetryBackoff * static_cast<double>(1ull << (attempt - 2)));
    }
    if (injector_.Trip(fwfault::FaultKind::kRegistryUnreachable)) {
      ++stats_.registry_unreachable;
      co_await fabric_.RegistryRpc();  // The timeout costs a round-trip.
      continue;
    }
    co_await fabric_.RegistryTransfer(chunk.bytes);
    if (injector_.Trip(fwfault::FaultKind::kChunkCorruption)) {
      ++stats_.corrupt_chunks;
      continue;
    }
    auto served = registry_.FetchChunk(chunk.digest);
    if (!served.ok()) {
      co_return served.status();
    }
    InsertChunk(host, chunk);
    ++stats_.chunks_from_registry;
    stats_.bytes_from_registry += chunk.bytes;
    co_return true;
  }
  co_return Status::Unavailable("chunk fetch exhausted retries");
}

fwsim::Co<Status> SnapshotDistribution::EnsureSnapshot(int host, AppId app) {
  if (!config_.enabled) {
    co_return Status::Ok();
  }
  const std::pair<int, AppId> key{host, app};
  // Coalesce concurrent pulls of the same app on the same host: latecomers
  // wait for the in-flight pull instead of double-fetching.
  while (true) {
    if (Holds(host, app)) {
      co_return Status::Ok();
    }
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      break;
    }
    ++stats_.coalesced;
    std::shared_ptr<fwsim::SimEvent> event = it->second;
    co_await event->Wait();
  }
  auto event = std::make_shared<fwsim::SimEvent>(sim_);
  inflight_[key] = event;

  ++stats_.cold_fetches;
  fwobs::ScopedSpan cold(&obs_.tracer(), "registry.cold_fetch", "registry");
  cold.SetAttribute("app", apps_.name(app));
  cold.SetAttribute("host", static_cast<uint64_t>(host));

  // --- Manifest ----------------------------------------------------------
  SnapshotManifest manifest;
  bool have_manifest = false;
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "registry.fetch_manifest", "registry");
    for (int attempt = 1; attempt <= kMaxFetchAttempts; ++attempt) {
      if (attempt > 1) {
        ++stats_.retries;
        co_await fwsim::Delay(sim_, kRetryBackoff * static_cast<double>(1ull << (attempt - 2)));
      }
      co_await fabric_.RegistryRpc();
      if (injector_.Trip(fwfault::FaultKind::kRegistryUnreachable)) {
        ++stats_.registry_unreachable;
        continue;
      }
      auto fetched = registry_.FetchManifest(apps_.name(app));
      if (fetched.ok()) {
        ++stats_.manifest_fetches;
        manifest = std::move(*fetched);
        have_manifest = true;
      }
      // NotFound (never published) falls through to the cold-boot path: the
      // host can always build the app from source, just slowly.
      break;
    }
  }

  // --- Chunks ------------------------------------------------------------
  bool total_loss = !have_manifest;
  uint64_t fetched_bytes = 0;
  if (have_manifest) {
    fwobs::ScopedSpan span(&obs_.tracer(), "registry.pull_chunks", "registry");
    span.SetAttribute("chunks", manifest.total_chunks());
    for (const LayerManifest& layer : manifest.layers) {
      for (const ChunkRef& chunk : layer.chunks) {
        auto crossed = co_await FetchChunk(host, chunk);
        if (!crossed.ok()) {
          total_loss = true;
          break;
        }
        if (*crossed) {
          fetched_bytes += chunk.bytes;
        }
      }
      if (total_loss) {
        break;
      }
    }
    span.SetAttribute("bytes_fetched", fetched_bytes);
  }

  if (total_loss) {
    // Every source exhausted (registry unreachable through all retries, or
    // the app was never published): boot the app from source instead of
    // restoring a snapshot. Slow, but the cluster stays available.
    fwobs::ScopedSpan span(&obs_.tracer(), "registry.cold_boot", "registry");
    co_await fwsim::Delay(sim_, config_.cold_boot_cost);
    ++stats_.cold_boots;
    AdoptLocal(host, app);
  } else {
    // Install: write the newly fetched chunks into the local snapshot store
    // (cached chunks reflink in for free), charged at the sequential read
    // rate.
    fwobs::ScopedSpan span(&obs_.tracer(), "registry.install", "registry");
    co_await fwsim::Delay(sim_,
                          fwbase::TransferTime(fetched_bytes, fwstore::kSequentialBytesPerSec));
    SetBit(holds_[static_cast<size_t>(host)], app);
  }

  inflight_.erase(key);
  event->Trigger();
  co_return Status::Ok();
}

fwsim::Co<void> SnapshotDistribution::WarmRestore(int host, AppId app) {
  if (!config_.enabled) {
    co_return;
  }
  if (!Warm(host, app)) {
    const SnapshotManifest* m = registry_.Peek(apps_.name(app));
    const uint64_t ws_bytes = m != nullptr ? m->working_set_bytes : 0;
    const uint64_t ws_pages = m != nullptr ? m->working_set_pages() : 0;
    if (config_.working_set_restore && ws_bytes > 0) {
      // REAP restore: one bulk sequential read of exactly the recorded set.
      fwobs::ScopedSpan span(&obs_.tracer(), "registry.workingset_prefetch", "registry");
      span.SetAttribute("bytes", ws_bytes);
      co_await fwsim::Delay(sim_,
                            fwbase::TransferTime(ws_bytes, fwstore::kSequentialBytesPerSec));
      ++stats_.warm_restores;
    } else if (ws_pages > 0) {
      // No prefetch: the first invocation demand-faults every touched page,
      // one random read at a time.
      fwobs::ScopedSpan span(&obs_.tracer(), "registry.demand_faults", "registry");
      span.SetAttribute("pages", ws_pages);
      co_await fwsim::Delay(sim_, kDemandFaultRead * static_cast<double>(ws_pages));
      ++stats_.demand_restores;
    }
    if (config_.restore_uniqueness) {
      // The freshly restored clone's identity is a byte copy of the
      // snapshot's (DESIGN.md §15): bump the host's vmgenid generation and
      // pay the guest RNG reseed + monotonic-clock rebase before the clone
      // serves traffic. Charged once per actual restore — a warm (host, app)
      // keeps its already-reseeded resident instance and pays nothing.
      const uint64_t generation = ++generations_[static_cast<size_t>(host)];
      const fwlang::RuntimeCosts costs = fwlang::RuntimeCosts::For(kBaseRuntime);
      {
        fwobs::ScopedSpan span(&obs_.tracer(), "registry.guest_reseed", "registry");
        span.SetAttribute("generation", generation);
        co_await fwsim::Delay(sim_, costs.vmgenid_reseed_cost);
      }
      {
        fwobs::ScopedSpan span(&obs_.tracer(), "registry.clock_rebase", "registry");
        co_await fwsim::Delay(sim_, costs.clock_rebase_cost);
      }
      ++stats_.guest_reseeds;
    }
    SetBit(warm_[static_cast<size_t>(host)], app);
  }
}

}  // namespace fwcluster
