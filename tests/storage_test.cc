// Unit tests for the storage substrate: block device, filesystem
// personalities, snapshot store eviction, and the document DB trigger feed.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mem/address_space.h"
#include "src/mem/host_memory.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"
#include "src/storage/block_device.h"
#include "src/storage/document_db.h"
#include "src/storage/filesystem.h"
#include "src/storage/snapshot_store.h"
#include "tests/test_util.h"

namespace fwstore {
namespace {

using fwbase::Duration;
using fwbase::kPageSize;
using fwsim::Co;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// BlockDevice.
// ---------------------------------------------------------------------------

class BlockDeviceTest : public fwtest::SimTest {
 protected:
  fwtest::Instruments inst_{sim_};
};
class FilesystemTest : public BlockDeviceTest {};

TEST_F(BlockDeviceTest, ReadCostIsLatencyPlusTransfer) {
  Simulation& sim = sim_;
  BlockDevice::Config cfg;
  cfg.read_latency = 100_us;
  cfg.read_bw_bytes_per_sec = 1.0e9;
  BlockDevice dev(sim, cfg, inst_.injector);
  // 1 MB at 1 GB/s ≈ 1 ms transfer + 100us latency.
  EXPECT_NEAR(dev.ReadCost(1'000'000).millis(), 1.1, 0.01);
}

TEST_F(BlockDeviceTest, OpsAdvanceSimulatedTime) {
  Simulation& sim = sim_;
  BlockDevice::Config cfg;
  cfg.write_latency = 50_us;
  cfg.write_bw_bytes_per_sec = 1.0e9;
  BlockDevice dev(sim, cfg, inst_.injector);
  RunSyncVoid(sim, dev.Write(1'000'000));
  EXPECT_NEAR((sim.Now() - fwbase::SimTime::Zero()).millis(), 1.05, 0.01);
  EXPECT_EQ(dev.bytes_written(), 1'000'000u);
  EXPECT_EQ(dev.write_ops(), 1u);
}

TEST_F(BlockDeviceTest, ParallelismBoundsConcurrency) {
  Simulation& sim = sim_;
  BlockDevice::Config cfg;
  cfg.read_latency = 1_ms;
  cfg.read_bw_bytes_per_sec = 1.0e12;  // Transfer negligible.
  cfg.parallelism = 2;
  BlockDevice dev(sim, cfg, inst_.injector);
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(dev.Read(1));
  }
  sim.Run();
  // 4 ops, 2 at a time, 1ms each → 2ms total.
  EXPECT_NEAR((sim.Now() - fwbase::SimTime::Zero()).millis(), 2.0, 0.01);
}

// ---------------------------------------------------------------------------
// Filesystem personalities.
// ---------------------------------------------------------------------------

TEST_F(FilesystemTest, PersonalityOrderingMatchesPaper) {
  // Per-op I/O cost must order host < overlay < virtio < 9p < gofer, the
  // ordering behind Fig 6(c)/7(c).
  const auto host = Filesystem::ConfigFor(FsKind::kHostDirect);
  const auto overlay = Filesystem::ConfigFor(FsKind::kOverlayFs);
  const auto virtio = Filesystem::ConfigFor(FsKind::kVirtio);
  const auto p9 = Filesystem::ConfigFor(FsKind::kP9fs);
  const auto gofer = Filesystem::ConfigFor(FsKind::kGofer);
  EXPECT_LT(host.per_op_overhead, overlay.per_op_overhead);
  EXPECT_LT(overlay.per_op_overhead, virtio.per_op_overhead);
  EXPECT_LT(virtio.per_op_overhead, p9.per_op_overhead);
  EXPECT_LT(p9.per_op_overhead, gofer.per_op_overhead);
  EXPECT_GT(host.bandwidth_scale, gofer.bandwidth_scale);
}

TEST_F(FilesystemTest, GoferSlowerThanOverlayEndToEnd) {
  Simulation& sim = sim_;
  BlockDevice dev(sim, BlockDevice::Config{}, inst_.injector);
  Filesystem overlay(sim, dev, FsKind::kOverlayFs);
  Filesystem gofer(sim, dev, FsKind::kGofer);

  const auto t0 = sim.Now();
  RunSyncVoid(sim, overlay.ReadFile(10 * 1024));
  const Duration overlay_time = sim.Now() - t0;
  const auto t1 = sim.Now();
  RunSyncVoid(sim, gofer.ReadFile(10 * 1024));
  const Duration gofer_time = sim.Now() - t1;
  EXPECT_GT(gofer_time, overlay_time * 2);
}

TEST_F(FilesystemTest, KindNames) {
  EXPECT_STREQ(FsKindName(FsKind::kGofer), "gofer");
  EXPECT_STREQ(FsKindName(FsKind::kVirtio), "virtio");
}

// ---------------------------------------------------------------------------
// SnapshotStore.
// ---------------------------------------------------------------------------

class SnapshotStoreTest : public fwtest::SimTest {
 protected:
  std::shared_ptr<fwmem::SnapshotImage> MakeImage(const std::string& name, uint64_t pages) {
    fwmem::AddressSpace space(host_);
    auto seg = space.AddSegment("all", pages * kPageSize);
    space.Dirty(seg, 0, pages);
    return space.TakeSnapshot(name);
  }

  uint64_t Count(const std::string& counter) const {
    return inst_.obs.metrics().CounterValue(counter);
  }

  fwtest::Instruments inst_{sim_};
  fwmem::HostMemory host_{8_GiB, inst_.obs};
  BlockDevice dev_{sim_, BlockDevice::Config{}, inst_.injector};
};

TEST_F(SnapshotStoreTest, SaveAndGet) {
  SnapshotStore store(sim_, dev_, 100 * kPageSize, inst_.obs, inst_.injector);
  auto status = RunSync(sim_, store.Save(MakeImage("f1", 10)));
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(store.Contains("f1"));
  EXPECT_EQ(store.used_bytes(), 10 * kPageSize);
  auto got = store.Get("f1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "f1");
  EXPECT_EQ(Count("store.snapshot.hit.count"), 1u);
}

TEST_F(SnapshotStoreTest, SavePaysDiskWriteTime) {
  SnapshotStore store(sim_, dev_, 1_GiB, inst_.obs, inst_.injector);
  const auto t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, store.Save(MakeImage("big", 25600))).ok());  // 100 MiB.
  const Duration elapsed = sim_.Now() - t0;
  // 100 MiB at 0.55 GB/s ≈ 190 ms.
  EXPECT_GT(elapsed.millis(), 120.0);
  EXPECT_LT(elapsed.millis(), 280.0);
}

TEST_F(SnapshotStoreTest, DuplicateSaveFails) {
  SnapshotStore store(sim_, dev_, 1_GiB, inst_.obs, inst_.injector);
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("f", 5))).ok());
  auto status = RunSync(sim_, store.Save(MakeImage("f", 5)));
  EXPECT_EQ(status.code(), fwbase::StatusCode::kAlreadyExists);
}

TEST_F(SnapshotStoreTest, MissingGetIsMiss) {
  SnapshotStore store(sim_, dev_, 1_GiB, inst_.obs, inst_.injector);
  EXPECT_FALSE(store.Get("nope").ok());
  EXPECT_EQ(Count("store.snapshot.miss.count"), 1u);
}

TEST_F(SnapshotStoreTest, LruEvictsColdestFirst) {
  SnapshotStore store(sim_, dev_, 30 * kPageSize, inst_.obs, inst_.injector,
                      SnapshotStore::EvictionPolicy::kLru);
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("a", 10))).ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("b", 10))).ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("c", 10))).ok());
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("d", 10))).ok());
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_FALSE(store.Contains("b"));
  EXPECT_TRUE(store.Contains("c"));
  EXPECT_TRUE(store.Contains("d"));
  EXPECT_EQ(Count("store.snapshot.evict.count"), 1u);
}

TEST_F(SnapshotStoreTest, FifoIgnoresRecency) {
  SnapshotStore store(sim_, dev_, 30 * kPageSize, inst_.obs, inst_.injector,
                      SnapshotStore::EvictionPolicy::kFifo);
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("a", 10))).ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("b", 10))).ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("c", 10))).ok());
  EXPECT_TRUE(store.Get("a").ok());  // Should not save "a" under FIFO.
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("d", 10))).ok());
  EXPECT_FALSE(store.Contains("a"));
}

TEST_F(SnapshotStoreTest, PinnedEntriesSurviveEviction) {
  SnapshotStore store(sim_, dev_, 30 * kPageSize, inst_.obs, inst_.injector,
                      SnapshotStore::EvictionPolicy::kLru);
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("hot", 10))).ok());
  EXPECT_TRUE(store.Pin("hot").ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("x", 10))).ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("y", 10))).ok());
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("z", 10))).ok());
  EXPECT_TRUE(store.Contains("hot"));
  EXPECT_FALSE(store.Contains("x"));
}

TEST_F(SnapshotStoreTest, NoPolicyRejectsWhenFull) {
  SnapshotStore store(sim_, dev_, 15 * kPageSize, inst_.obs, inst_.injector,
                      SnapshotStore::EvictionPolicy::kNone);
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("a", 10))).ok());
  auto status = RunSync(sim_, store.Save(MakeImage("b", 10)));
  EXPECT_EQ(status.code(), fwbase::StatusCode::kResourceExhausted);
}

TEST_F(SnapshotStoreTest, OversizedImageRejected) {
  SnapshotStore store(sim_, dev_, 5 * kPageSize, inst_.obs, inst_.injector,
                      SnapshotStore::EvictionPolicy::kLru);
  auto status = RunSync(sim_, store.Save(MakeImage("huge", 10)));
  EXPECT_EQ(status.code(), fwbase::StatusCode::kResourceExhausted);
}

TEST_F(SnapshotStoreTest, RemoveFreesSpace) {
  SnapshotStore store(sim_, dev_, 1_GiB, inst_.obs, inst_.injector);
  EXPECT_TRUE(RunSync(sim_, store.Save(MakeImage("a", 10))).ok());
  EXPECT_TRUE(store.Remove("a").ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.Remove("a").ok());
}

// ---------------------------------------------------------------------------
// DocumentDb.
// ---------------------------------------------------------------------------

class DocumentDbTest : public BlockDeviceTest {
 protected:
  BlockDevice dev_{sim_, BlockDevice::Config{}, inst_.injector};
  Filesystem fs_{sim_, dev_, FsKind::kHostDirect};
  DocumentDb db_{sim_, fs_};
};

TEST_F(DocumentDbTest, PutThenGet) {
  EXPECT_TRUE(RunSync(sim_, db_.Put("reminders", {"r1", R"({"item":"dentist"})"})).ok());
  auto doc = RunSync(sim_, db_.Get("reminders", "r1"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->body, R"({"item":"dentist"})");
  EXPECT_EQ(db_.puts(), 1u);
  EXPECT_EQ(db_.gets(), 1u);
}

TEST_F(DocumentDbTest, GetMissingFails) {
  auto doc = RunSync(sim_, db_.Get("none", "k"));
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), fwbase::StatusCode::kNotFound);
}

TEST_F(DocumentDbTest, PutOverwritesAndScanSeesAll) {
  ASSERT_TRUE(RunSync(sim_, db_.Put("wages", {"w1", "100"})).ok());
  ASSERT_TRUE(RunSync(sim_, db_.Put("wages", {"w1", "200"})).ok());
  ASSERT_TRUE(RunSync(sim_, db_.Put("wages", {"w2", "300"})).ok());
  auto docs = RunSync(sim_, db_.Scan("wages"));
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(db_.DocCount("wages"), 2u);
}

TEST_F(DocumentDbTest, DeleteRemoves) {
  ASSERT_TRUE(RunSync(sim_, db_.Put("d", {"k", "v"})).ok());
  EXPECT_TRUE(RunSync(sim_, db_.Delete("d", "k")).ok());
  EXPECT_FALSE(RunSync(sim_, db_.Get("d", "k")).ok());
  EXPECT_FALSE(RunSync(sim_, db_.Delete("d", "k")).ok());
}

TEST_F(DocumentDbTest, UpdateFeedDeliversTriggers) {
  // The data-analysis chain subscribes to the update feed (Fig 8(b)).
  std::vector<std::string> triggered;
  sim_.Spawn([](DocumentDb& db, std::vector<std::string>& out) -> Co<void> {
    for (int i = 0; i < 2; ++i) {
      auto event = co_await db.update_feed().Recv();
      out.push_back(event.db + "/" + event.doc.key);
    }
  }(db_, triggered));
  sim_.Spawn([](DocumentDb& db) -> Co<void> {
    co_await db.Put("wages", {"w1", "100"});
    co_await db.Put("wages", {"w2", "200"});
  }(db_));
  sim_.Run();
  ASSERT_EQ(triggered.size(), 2u);
  EXPECT_EQ(triggered[0], "wages/w1");
  EXPECT_EQ(triggered[1], "wages/w2");
}

TEST_F(DocumentDbTest, ScanOfEmptyDbIsEmpty) {
  auto docs = RunSync(sim_, db_.Scan("empty"));
  EXPECT_TRUE(docs.empty());
}

}  // namespace
}  // namespace fwstore
