// Registry test battery: chunk addressing, the byte-budgeted LRU chunk
// cache, the manifest wire format, the registry bookkeeping, and the
// SnapshotDistribution fetch protocol (coalescing, cache → peer → registry
// fallback, cold-boot degradation, REAP restore).
//
// The cache suites are property tests over per-test-seeded random op
// sequences (fwtest::SimTest): the invariants hold for every sequence, not
// just hand-picked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/cluster/snapshot_distribution.h"
#include "src/fault/fault.h"
#include "src/obs/observability.h"
#include "src/simcore/simulation.h"
#include "src/storage/chunker.h"
#include "src/storage/manifest.h"
#include "src/storage/registry.h"
#include "tests/test_util.h"

namespace fwstore {
namespace {

using fwbase::Duration;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;

// ---------------------------------------------------------------------------
// SyntheticChunks: deterministic addresses for content-less layers.
// ---------------------------------------------------------------------------

TEST(SyntheticChunksTest, TilesTotalBytesDeterministically) {
  const std::vector<ChunkRef> a = SyntheticChunks("base/nodejs", 10'000'000, 1 << 20);
  const std::vector<ChunkRef> b = SyntheticChunks("base/nodejs", 10'000'000, 1 << 20);
  ASSERT_EQ(a.size(), b.size());
  uint64_t total = 0;
  std::set<uint64_t> digests;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // Same (key, index, size) ⇒ same address, everywhere.
    total += a[i].bytes;
    digests.insert(a[i].digest);
  }
  EXPECT_EQ(total, 10'000'000u);
  EXPECT_EQ(digests.size(), a.size());  // Indices never collide within a layer.
  EXPECT_EQ(a.back().bytes, 10'000'000u % (1u << 20));  // Last takes the remainder.
}

TEST(SyntheticChunksTest, DigestsAreStableAcrossBuilds) {
  // Pinned values: chunk digests key every cache, peer index and registry
  // book, so the goldens and replay digests depend on these never drifting.
  const std::vector<ChunkRef> chunks = SyntheticChunks("base/nodejs", 10'000'000, 1 << 20);
  EXPECT_EQ(chunks.front().digest, 0x8e4ed00e4170b3fdull);
  EXPECT_EQ(chunks.back().digest, 0xaa25336d86bf3008ull);
}

TEST(SyntheticChunksTest, DistinctLayersDoNotShareAddresses) {
  const std::vector<ChunkRef> base = SyntheticChunks("base/nodejs", 1 << 22, 1 << 20);
  const std::vector<ChunkRef> delta = SyntheticChunks("delta/app-0", 1 << 22, 1 << 20);
  std::set<uint64_t> digests;
  for (const ChunkRef& c : base) digests.insert(c.digest);
  for (const ChunkRef& c : delta) {
    EXPECT_EQ(digests.count(c.digest), 0u);
  }
}

// ---------------------------------------------------------------------------
// ChunkCache: the byte budget is an invariant, eviction is deterministic.
// ---------------------------------------------------------------------------

class ChunkCacheProperty : public fwtest::SimTest {};

TEST_F(ChunkCacheProperty, NeverExceedsByteBudget) {
  const uint64_t budget = 4096;
  ChunkCache cache(budget);
  for (int op = 0; op < 2000; ++op) {
    const uint64_t digest = sim_.rng().UniformU64(64);
    switch (sim_.rng().UniformU64(4)) {
      case 0:
      case 1:
        // Sizes up to 1.5x the budget: oversized inserts must be refused.
        cache.Insert(digest, 1 + sim_.rng().UniformU64(budget + budget / 2));
        break;
      case 2:
        cache.Touch(digest);
        break;
      default:
        cache.Erase(digest);
        break;
    }
    ASSERT_LE(cache.used_bytes(), budget);
  }
}

TEST_F(ChunkCacheProperty, EvictionOrderIsDeterministic) {
  // Two caches fed the identical op sequence emit identical eviction lists,
  // in identical order.
  const uint64_t budget = 2048;
  ChunkCache a(budget);
  ChunkCache b(budget);
  std::vector<std::pair<uint64_t, uint64_t>> ops;
  for (int i = 0; i < 500; ++i) {
    ops.emplace_back(sim_.rng().UniformU64(32), 1 + sim_.rng().UniformU64(512));
  }
  std::vector<uint64_t> evicted_a;
  std::vector<uint64_t> evicted_b;
  for (const auto& [digest, bytes] : ops) {
    for (uint64_t d : a.Insert(digest, bytes)) evicted_a.push_back(d);
    for (uint64_t d : b.Insert(digest, bytes)) evicted_b.push_back(d);
  }
  EXPECT_EQ(evicted_a, evicted_b);
  EXPECT_EQ(a.used_bytes(), b.used_bytes());
  EXPECT_EQ(a.entries(), b.entries());
}

TEST(ChunkCacheTest, EvictsColdestFirstAndTouchPromotes) {
  ChunkCache cache(300);
  EXPECT_TRUE(cache.Insert(1, 100).empty());
  EXPECT_TRUE(cache.Insert(2, 100).empty());
  EXPECT_TRUE(cache.Insert(3, 100).empty());
  cache.Touch(1);  // 1 is now hottest; 2 is coldest.
  const std::vector<uint64_t> evicted = cache.Insert(4, 150);
  ASSERT_EQ(evicted.size(), 2u);  // Needs 150 free: evicts 2 then 3.
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_EQ(evicted[1], 3u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(ChunkCacheTest, OversizedChunkRefusedWithoutCollateralEviction) {
  ChunkCache cache(100);
  EXPECT_TRUE(cache.Insert(1, 60).empty());
  EXPECT_TRUE(cache.Insert(2, 200).empty());  // Larger than the whole budget.
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));  // Nothing was evicted for the refusal.
  EXPECT_EQ(cache.used_bytes(), 60u);
}

TEST(ChunkCacheTest, ResidentInsertIsATouch) {
  ChunkCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(1, 100);  // Re-insert promotes 1; 2 becomes coldest.
  const std::vector<uint64_t> evicted = cache.Insert(3, 200);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_EQ(cache.used_bytes(), 300u);
}

TEST(ChunkCacheTest, LookupHitPromotes) {
  ChunkCache cache(100);
  cache.Insert(7, 50);
  cache.Insert(8, 50);
  EXPECT_TRUE(cache.Lookup(7));  // 7 is now hottest; 8 is coldest.
  EXPECT_FALSE(cache.Lookup(9));
  const std::vector<uint64_t> evicted = cache.Insert(10, 50);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 8u);
}

// ---------------------------------------------------------------------------
// Manifest wire format.
// ---------------------------------------------------------------------------

class ManifestProperty : public fwtest::SimTest {};

SnapshotManifest RandomManifest(fwbase::Rng& rng) {
  SnapshotManifest m;
  m.app = "app-" + std::to_string(rng.UniformU64(1000));
  const int layers = 1 + static_cast<int>(rng.UniformU64(3));
  for (int l = 0; l < layers; ++l) {
    LayerManifest layer;
    layer.key = (l == 0 ? "base/rt-" : "delta/x-") + std::to_string(l);
    layer.kind = l == 0 ? LayerKind::kBase : LayerKind::kDelta;
    const int chunks = 1 + static_cast<int>(rng.UniformU64(8));
    for (int c = 0; c < chunks; ++c) {
      layer.chunks.push_back(ChunkRef{rng.NextU64(), 1 + rng.UniformU64(1 << 20)});
    }
    m.layers.push_back(std::move(layer));
  }
  m.image_bytes = 0;
  for (const LayerManifest& layer : m.layers) {
    m.image_bytes += layer.bytes();
  }
  uint64_t page = 0;
  const int ranges = static_cast<int>(rng.UniformU64(4));
  for (int r = 0; r < ranges; ++r) {
    page += rng.UniformU64(100);
    const uint64_t count = 1 + rng.UniformU64(50);
    m.working_set.push_back(PageRange{page, count});
    page += count;
  }
  m.working_set_bytes = m.working_set_pages() * fwbase::kPageSize;
  return m;
}

TEST_F(ManifestProperty, JsonRoundTripIsExactAndByteStable) {
  for (int round = 0; round < 32; ++round) {
    const SnapshotManifest m = RandomManifest(sim_.rng());
    const std::string wire = m.ToJson();
    auto parsed = SnapshotManifest::Parse(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->app, m.app);
    EXPECT_EQ(parsed->image_bytes, m.image_bytes);
    EXPECT_EQ(parsed->working_set_bytes, m.working_set_bytes);
    ASSERT_EQ(parsed->layers.size(), m.layers.size());
    for (size_t l = 0; l < m.layers.size(); ++l) {
      EXPECT_EQ(parsed->layers[l].key, m.layers[l].key);
      EXPECT_EQ(parsed->layers[l].kind, m.layers[l].kind);
      EXPECT_EQ(parsed->layers[l].chunks, m.layers[l].chunks);
    }
    ASSERT_EQ(parsed->working_set.size(), m.working_set.size());
    for (size_t r = 0; r < m.working_set.size(); ++r) {
      EXPECT_EQ(parsed->working_set[r], m.working_set[r]);
    }
    // Re-serialising the parse yields the same bytes: the wire format is
    // canonical (sorted keys, integral numbers, fixed-width hex digests).
    EXPECT_EQ(parsed->ToJson(), wire);
  }
}

// An app name's control bytes are written as \u00XX escapes (RFC 8259 §7)
// and parse back byte-exactly; bytes that are not valid UTF-8 are escaped
// the same way, so they parse back as the code points U+00XX.
TEST(ManifestTest, AppNamesRoundTripThroughEscapes) {
  SnapshotManifest m;
  m.app = std::string("app\x01\x1f\n\0end", 10);
  std::string wire = m.ToJson();
  EXPECT_NE(wire.find(R"("app":"app\u0001\u001f\n\u0000end")"), std::string::npos) << wire;
  auto parsed = SnapshotManifest::Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->app, m.app);

  m.app = "raw\x80\xff";
  wire = m.ToJson();
  EXPECT_NE(wire.find(R"("app":"raw\u0080\u00ff")"), std::string::npos) << wire;
  parsed = SnapshotManifest::Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->app, "raw\xc2\x80\xc3\xbf");
}

TEST(ManifestTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(SnapshotManifest::Parse("not json at all").ok());
  EXPECT_FALSE(SnapshotManifest::Parse("{}").ok());
  EXPECT_FALSE(
      SnapshotManifest::Parse(R"({"schema":"something-else/9","app":"a"})").ok());
  // Deep nesting is a status, not a stack overflow in the JSON parser.
  EXPECT_FALSE(SnapshotManifest::Parse(std::string(1'000'000, '[')).ok());
  // A digest that is not 16 hex digits must not parse.
  SnapshotManifest m;
  m.app = "a";
  LayerManifest layer;
  layer.key = "base/x";
  layer.chunks.push_back(ChunkRef{42, 10});
  m.layers.push_back(layer);
  m.image_bytes = 10;
  std::string wire = m.ToJson();
  const size_t pos = wire.find("000000000000002a");
  ASSERT_NE(pos, std::string::npos);
  wire.replace(pos, 16, "zz0000000000002a");
  EXPECT_FALSE(SnapshotManifest::Parse(wire).ok());
  // Counts are integers below 2^64: a fraction would truncate, and casting a
  // double at or past 2^64 to uint64_t is undefined behaviour.
  const std::string field = "\"image_bytes\":10";
  const std::string valid = m.ToJson();
  ASSERT_NE(valid.find(field), std::string::npos);
  for (const char* bad : {"1e300", "18446744073709551616", "1.5", "-1"}) {
    std::string count = valid;
    count.replace(count.find(field), field.size(), std::string("\"image_bytes\":") + bad);
    EXPECT_FALSE(SnapshotManifest::Parse(count).ok()) << bad;
  }
  // The largest double below 2^64 is a count.
  std::string largest = valid;
  largest.replace(largest.find(field), field.size(), "\"image_bytes\":18446744073709549568");
  auto parsed = SnapshotManifest::Parse(largest);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->image_bytes, 18446744073709549568ull);
}

// ---------------------------------------------------------------------------
// SnapshotRegistry bookkeeping.
// ---------------------------------------------------------------------------

TEST(SnapshotRegistryTest, PublishAndFetch) {
  SnapshotRegistry registry;
  SnapshotManifest m;
  m.app = "app-0";
  LayerManifest layer;
  layer.key = "image/app-0";
  layer.chunks = SyntheticChunks(layer.key, 4096, 1024);
  m.layers.push_back(layer);
  m.image_bytes = 4096;
  registry.Publish(m);

  EXPECT_TRUE(registry.HasManifest("app-0"));
  EXPECT_FALSE(registry.HasManifest("app-1"));
  EXPECT_EQ(registry.chunk_count(), 4u);
  auto fetched = registry.FetchManifest("app-0");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->total_chunks(), 4u);
  EXPECT_FALSE(registry.FetchManifest("app-1").ok());
  auto chunk = registry.FetchChunk(m.layers[0].chunks[0].digest);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(*chunk, 1024u);
  EXPECT_FALSE(registry.FetchChunk(12345).ok());
}

}  // namespace
}  // namespace fwstore

// ---------------------------------------------------------------------------
// SnapshotDistribution protocol: coalescing, cache → peer → registry
// fallback, degradation to cold boot, and the REAP restore cost model.
// ---------------------------------------------------------------------------

namespace fwcluster {
namespace {

using fwbase::Duration;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;

class DistributionTest : public fwtest::SimTest {
 protected:
  DistributionConfig SmallConfig() {
    DistributionConfig config;
    config.enabled = true;
    config.base_layer_bytes = 8ull << 20;
    config.delta_layer_bytes = 2ull << 20;
    config.chunk_bytes = 1ull << 20;
    config.cache_budget_bytes = 64ull << 20;
    return config;
  }

  // Names the app ids the tier is keyed by.
  AppId App(const std::string& name) { return apps_.Intern(name); }

  AppTable apps_;
  fwtest::Instruments inst_{sim_};
};

TEST_F(DistributionTest, ColdFetchInstallsThenHoldIsFree) {
  SnapshotDistribution dist(sim_, apps_, 4, SmallConfig(), inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);
  EXPECT_TRUE(dist.Holds(0, App("app-0")));
  EXPECT_FALSE(dist.Holds(1, App("app-0")));

  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  EXPECT_TRUE(dist.Holds(1, App("app-0")));
  EXPECT_GT(sim_.Now(), fwbase::SimTime::Zero());  // The pull cost time.
  EXPECT_EQ(dist.stats().cold_fetches, 1u);
  EXPECT_EQ(dist.stats().manifest_fetches, 1u);

  const fwbase::SimTime after_pull = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  EXPECT_EQ(sim_.Now(), after_pull);  // Already held: free.
  EXPECT_EQ(dist.stats().cold_fetches, 1u);
}

TEST_F(DistributionTest, ConcurrentPullsCoalesceOntoOneFetch) {
  SnapshotDistribution dist(sim_, apps_, 4, SmallConfig(), inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    sim_.Spawn([](SnapshotDistribution& d, AppId app, int* counter) -> fwsim::Co<void> {
      const fwbase::Status s = co_await d.EnsureSnapshot(1, app);
      FW_CHECK(s.ok());
      ++*counter;
    }(dist, App("app-0"), &done));
  }
  sim_.Run();
  EXPECT_EQ(done, 3);
  EXPECT_TRUE(dist.Holds(1, App("app-0")));
  EXPECT_EQ(dist.stats().cold_fetches, 1u);  // One pull, two waiters.
  EXPECT_EQ(dist.stats().coalesced, 2u);
  EXPECT_EQ(dist.stats().manifest_fetches, 1u);
}

TEST_F(DistributionTest, PeerServesChunksWhenAHolderExists) {
  DistributionConfig config = SmallConfig();
  SnapshotDistribution dist(sim_, apps_, 4, config, inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);  // Host 0's cache holds every chunk.
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(2, App("app-0"))).ok());
  EXPECT_EQ(dist.stats().bytes_from_registry, 0u);
  EXPECT_EQ(dist.stats().bytes_from_peer, 10ull << 20);
}

TEST_F(DistributionTest, RegistryServesChunksWhenPeerFetchDisabled) {
  DistributionConfig config = SmallConfig();
  config.peer_fetch = false;
  SnapshotDistribution dist(sim_, apps_, 4, config, inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(2, App("app-0"))).ok());
  EXPECT_EQ(dist.stats().bytes_from_peer, 0u);
  EXPECT_EQ(dist.stats().bytes_from_registry, 10ull << 20);
}

TEST_F(DistributionTest, SharedBaseLayerComesFromCacheOnSecondApp) {
  SnapshotDistribution dist(sim_, apps_, 4, SmallConfig(), inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);
  dist.Publish(App("app-1"), 0);  // Same runtime: identical base layer.
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  const uint64_t peer_after_first = dist.stats().bytes_from_peer;
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-1"))).ok());
  // The 8 MiB base layer dedups against the cache; only the 2 MiB delta moves.
  EXPECT_EQ(dist.stats().bytes_from_cache, 8ull << 20);
  EXPECT_EQ(dist.stats().bytes_from_peer - peer_after_first, 2ull << 20);
}

TEST_F(DistributionTest, UnpublishedAppDegradesToColdBoot) {
  SnapshotDistribution dist(sim_, apps_, 2, SmallConfig(), inst_.obs, inst_.injector);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("ghost-app"))).ok());
  EXPECT_TRUE(dist.Holds(1, App("ghost-app")));  // Booted from source.
  EXPECT_EQ(dist.stats().cold_boots, 1u);
  EXPECT_GE(sim_.Now() - fwbase::SimTime::Zero(), SmallConfig().cold_boot_cost);
}

TEST_F(DistributionTest, RegistryDownThroughAllRetriesColdBoots) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kRegistryUnreachable, 1.0);
  fwfault::FaultInjector injector(sim_, plan, fwtest::PerTestSeed());
  DistributionConfig config = SmallConfig();
  config.peer_fetch = false;
  SnapshotDistribution dist(sim_, apps_, 2, config, inst_.obs, injector);
  dist.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  EXPECT_TRUE(dist.Holds(1, App("app-0")));
  EXPECT_EQ(dist.stats().cold_boots, 1u);
  EXPECT_EQ(dist.stats().manifest_fetches, 0u);
  // Every manifest attempt hit the outage; backoff retries were spent.
  EXPECT_EQ(dist.stats().registry_unreachable,
            static_cast<uint64_t>(SnapshotDistribution::kMaxFetchAttempts));
  EXPECT_EQ(dist.stats().retries,
            static_cast<uint64_t>(SnapshotDistribution::kMaxFetchAttempts - 1));
}

TEST_F(DistributionTest, CorruptChunkRetriesAgainstRegistryAndSucceeds) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kChunkCorruption, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, fwtest::PerTestSeed());
  DistributionConfig config = SmallConfig();
  config.peer_fetch = false;
  SnapshotDistribution dist(sim_, apps_, 2, config, inst_.obs, injector);
  dist.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  EXPECT_TRUE(dist.Holds(1, App("app-0")));
  EXPECT_EQ(dist.stats().cold_boots, 0u);
  EXPECT_EQ(dist.stats().corrupt_chunks, 1u);
  EXPECT_GE(dist.stats().retries, 1u);
}

TEST_F(DistributionTest, CorruptPeerChunkFallsBackToRegistry) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kChunkCorruption, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, fwtest::PerTestSeed());
  SnapshotDistribution dist(sim_, apps_, 2, SmallConfig(), inst_.obs, injector);
  dist.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  // The first peer transfer was corrupt; that chunk came from the registry
  // instead (ground truth), and the rest kept flowing from the peer.
  EXPECT_EQ(dist.stats().corrupt_chunks, 1u);
  EXPECT_GT(dist.stats().bytes_from_registry, 0u);
  EXPECT_GT(dist.stats().bytes_from_peer, 0u);
  EXPECT_EQ(dist.stats().cold_boots, 0u);
}

TEST_F(DistributionTest, WorkingSetPrefetchBeatsDemandFaulting) {
  DistributionConfig config = SmallConfig();
  SnapshotDistribution prefetch(sim_, apps_, 2, config, inst_.obs, inst_.injector);
  prefetch.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, prefetch.EnsureSnapshot(1, App("app-0"))).ok());
  const fwbase::SimTime before = sim_.Now();
  RunSyncVoid(sim_, prefetch.WarmRestore(1, App("app-0")));
  const Duration prefetch_cost = sim_.Now() - before;
  EXPECT_GT(prefetch_cost, Duration::Zero());
  EXPECT_EQ(prefetch.stats().warm_restores, 1u);
  EXPECT_TRUE(prefetch.Warm(1, App("app-0")));

  // Same image without REAP restore: pay one random read per touched page.
  config.working_set_restore = false;
  SnapshotDistribution demand(sim_, apps_, 2, config, inst_.obs, inst_.injector);
  demand.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, demand.EnsureSnapshot(1, App("app-0"))).ok());
  const fwbase::SimTime before_demand = sim_.Now();
  RunSyncVoid(sim_, demand.WarmRestore(1, App("app-0")));
  const Duration demand_cost = sim_.Now() - before_demand;
  EXPECT_EQ(demand.stats().demand_restores, 1u);
  EXPECT_GT(demand_cost, prefetch_cost);

  // A warm (host, app) pays nothing on later restores.
  const fwbase::SimTime warm_now = sim_.Now();
  RunSyncVoid(sim_, prefetch.WarmRestore(1, App("app-0")));
  EXPECT_EQ(sim_.Now(), warm_now);
}

TEST_F(DistributionTest, RestartKeepsDiskStateButNeedsRewarm) {
  SnapshotDistribution dist(sim_, apps_, 2, SmallConfig(), inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  RunSyncVoid(sim_, dist.WarmRestore(1, App("app-0")));
  ASSERT_TRUE(dist.Warm(1, App("app-0")));

  dist.OnHostRestart(1);
  EXPECT_TRUE(dist.Holds(1, App("app-0")));   // Chunks + image survive on disk.
  EXPECT_FALSE(dist.Warm(1, App("app-0")));   // Page cache does not.
  RunSyncVoid(sim_, dist.WarmRestore(1, App("app-0")));
  EXPECT_EQ(dist.stats().warm_restores, 2u);
}

TEST_F(DistributionTest, CacheEvictionsRetirePeerIndexEntries) {
  DistributionConfig config = SmallConfig();
  // Budget holds half of one image: pulling forces continuous eviction.
  config.cache_budget_bytes = 5ull << 20;
  SnapshotDistribution dist(sim_, apps_, 2, config, inst_.obs, inst_.injector);
  dist.Publish(App("app-0"), 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  EXPECT_GT(dist.stats().cache_evictions, 0u);
  EXPECT_LE(dist.cache(0).used_bytes(), config.cache_budget_bytes);
  EXPECT_LE(dist.cache(1).used_bytes(), config.cache_budget_bytes);
}

TEST_F(DistributionTest, DisabledTierIsInert) {
  DistributionConfig config;  // enabled = false.
  SnapshotDistribution dist(sim_, apps_, 2, config, inst_.obs, inst_.injector);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, App("app-0"))).ok());
  RunSyncVoid(sim_, dist.WarmRestore(1, App("app-0")));
  EXPECT_EQ(sim_.Now(), fwbase::SimTime::Zero());
  EXPECT_EQ(dist.stats().cold_fetches, 0u);
}

}  // namespace
}  // namespace fwcluster
