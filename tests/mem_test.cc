// Unit & property tests for the host memory model: page sets, frame
// accounting, CoW snapshot mappings, and smem-style PSS/RSS/USS metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/mem/address_space.h"
#include "src/mem/backing_store.h"
#include "src/mem/host_memory.h"
#include "src/mem/page_pick.h"
#include "src/mem/page_set.h"
#include "src/obs/observability.h"
#include "tests/test_util.h"

namespace fwmem {
namespace {

using fwbase::kPageSize;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// PageSet.
// ---------------------------------------------------------------------------

TEST(PageSetTest, SetTestClear) {
  PageSet s(128);
  EXPECT_FALSE(s.Test(5));
  s.Set(5);
  EXPECT_TRUE(s.Test(5));
  EXPECT_EQ(s.Count(), 1u);
  s.Set(5);  // Idempotent.
  EXPECT_EQ(s.Count(), 1u);
  s.Clear(5);
  EXPECT_FALSE(s.Test(5));
  EXPECT_EQ(s.Count(), 0u);
}

TEST(PageSetTest, RangeOpsAndClamping) {
  PageSet s(100);
  s.SetRange(90, 50);  // Clamps at 100.
  EXPECT_EQ(s.Count(), 10u);
  EXPECT_TRUE(s.Test(99));
  s.ClearRange(95, 100);
  EXPECT_EQ(s.Count(), 5u);

  // Ranges that cross word boundaries, start and end mid-word, or fill whole
  // words.
  PageSet w(300);
  w.SetRange(60, 10);  // Crosses the 64 boundary.
  EXPECT_EQ(w.Count(), 10u);
  EXPECT_FALSE(w.Test(59));
  EXPECT_TRUE(w.Test(60));
  EXPECT_TRUE(w.Test(63));
  EXPECT_TRUE(w.Test(64));
  EXPECT_TRUE(w.Test(69));
  EXPECT_FALSE(w.Test(70));
  w.SetRange(5, 250);  // Two partial and two whole words; overlaps the bits already set.
  EXPECT_EQ(w.Count(), 250u);
  EXPECT_FALSE(w.Test(4));
  EXPECT_TRUE(w.Test(254));
  EXPECT_FALSE(w.Test(255));
  w.ClearRange(63, 130);  // Clears [63, 193), mid-word to mid-word.
  EXPECT_EQ(w.Count(), 120u);
  EXPECT_TRUE(w.Test(62));
  EXPECT_FALSE(w.Test(63));
  EXPECT_FALSE(w.Test(192));
  EXPECT_TRUE(w.Test(193));
  w.SetRange(256, 1000);  // Starts on a word boundary, clamps at 300.
  EXPECT_EQ(w.Count(), 164u);
  EXPECT_TRUE(w.Test(299));
  w.SetRange(400, 10);  // Entirely past the end: no-op.
  w.ClearRange(0, 0);
  EXPECT_EQ(w.Count(), 164u);
  w.ClearRange(0, 300);
  EXPECT_EQ(w.Count(), 0u);
}

TEST(PageSetTest, CountRange) {
  PageSet s(256);
  s.SetRange(10, 20);
  EXPECT_EQ(s.CountRange(0, 256), 20u);
  EXPECT_EQ(s.CountRange(15, 10), 10u);
  EXPECT_EQ(s.CountRange(0, 10), 0u);

  // Word-crossing counts against a page-by-page count.
  PageSet w(200);
  for (uint64_t p = 0; p < 200; p += 3) {
    w.Set(p);
  }
  for (uint64_t first : {0u, 1u, 63u, 64u, 65u, 127u, 130u, 199u}) {
    for (uint64_t count : {0u, 1u, 2u, 64u, 65u, 70u, 140u, 500u}) {
      uint64_t want = 0;
      for (uint64_t p = first; p < std::min<uint64_t>(first + count, 200); ++p) {
        want += w.Test(p) ? 1 : 0;
      }
      EXPECT_EQ(w.CountRange(first, count), want) << first << "+" << count;
    }
  }
}

TEST(PageSetTest, ForEachSetAscending) {
  PageSet s(200);
  s.Set(3);
  s.Set(64);
  s.Set(199);
  std::vector<uint64_t> seen;
  s.ForEachSet([&](uint64_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 64, 199}));
}

TEST(PageSetTest, UnionWith) {
  PageSet a(128);
  PageSet b(128);
  a.SetRange(0, 10);
  b.SetRange(5, 10);
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 15u);
}

TEST(PageSetTest, GrowPreservesBits) {
  PageSet s(64);
  s.Set(63);
  s.Grow(1024);
  EXPECT_TRUE(s.Test(63));
  EXPECT_FALSE(s.Test(500));
  s.Set(1000);
  EXPECT_EQ(s.Count(), 2u);
}

// ---------------------------------------------------------------------------
// HostMemory.
// ---------------------------------------------------------------------------

TEST(HostMemoryTest, AllocFreeAccounting) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  host.AllocFrames(100);
  EXPECT_EQ(host.used_bytes(), 100 * kPageSize);
  host.FreeFrames(40);
  EXPECT_EQ(host.used_frames(), 60u);
  EXPECT_EQ(host.peak_used_bytes(), 100 * kPageSize);
  EXPECT_EQ(obs.metrics().CounterValue("mem.frame.alloc.count"), 100u);
  EXPECT_EQ(host.total_freed_frames(), 40u);
}

TEST(HostMemoryTest, SwapThreshold) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(100 * kPageSize, obs, /*swap_start_fraction=*/0.6);
  host.AllocFrames(60);
  EXPECT_FALSE(host.swapping());
  host.AllocFrames(1);
  EXPECT_TRUE(host.swapping());
  EXPECT_EQ(host.swap_threshold_bytes(), 60 * kPageSize);
}

TEST(HostMemoryDeathTest, OverFreeAborts) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  host.AllocFrames(1);
  EXPECT_DEATH(host.FreeFrames(2), "freeing more frames");
}

// ---------------------------------------------------------------------------
// BackingStore.
// ---------------------------------------------------------------------------

TEST(BackingStoreTest, FirstTouchIsMajor) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  {
    BackingStore store(host, 10);
    EXPECT_TRUE(store.IncResident(0));
    EXPECT_EQ(host.used_frames(), 0u);  // Charged by Settle(), not per page.
    store.Settle();
    EXPECT_EQ(host.used_frames(), 1u);
    EXPECT_FALSE(store.IncResident(0));  // Second mapper: minor.
    store.Settle();
    EXPECT_EQ(host.used_frames(), 1u);   // Still one frame.
    EXPECT_EQ(store.ResidentRefs(0), 2u);
    store.DecResident(0);
    store.Settle();
    EXPECT_EQ(host.used_frames(), 1u);
    store.DecResident(0);
    EXPECT_EQ(store.resident_pages(), 0u);
    store.Settle();
    EXPECT_EQ(host.used_frames(), 0u);
  }
  EXPECT_EQ(host.used_frames(), 0u);
}

TEST(BackingStoreTest, DestructorReleasesResidentFrames) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  {
    BackingStore store(host, 10);
    store.IncResident(1);
    store.IncResident(2);
    store.Settle();
    EXPECT_EQ(host.used_frames(), 2u);
  }
  EXPECT_EQ(host.used_frames(), 0u);
}

// ---------------------------------------------------------------------------
// AddressSpace: fresh (cold-boot) spaces.
// ---------------------------------------------------------------------------

TEST(AddressSpaceTest, FreshSpaceTouchAllocatesPrivateFrames) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("kernel", 16 * kPageSize);
  const FaultCounts fc = space.Touch(seg, 0, 16);
  EXPECT_EQ(fc.fresh_writes, 16u);
  EXPECT_EQ(space.uss_bytes(), 16 * kPageSize);
  EXPECT_EQ(space.rss_bytes(), 16 * kPageSize);
  EXPECT_DOUBLE_EQ(space.pss_bytes(), 16.0 * kPageSize);
  EXPECT_EQ(host.used_frames(), 16u);
}

TEST(AddressSpaceTest, RepeatAccessIsFree) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("heap", 8 * kPageSize);
  space.Dirty(seg, 0, 8);
  const FaultCounts fc = space.Dirty(seg, 0, 8);
  EXPECT_EQ(fc.already_mapped, 8u);
  EXPECT_EQ(fc.Faults(), 0u);
  EXPECT_EQ(host.used_frames(), 8u);
}

TEST(AddressSpaceTest, UnmapReleasesEverything) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  auto space = std::make_unique<AddressSpace>(host);
  const SegmentId seg = space->AddSegment("heap", 32 * kPageSize);
  space->Dirty(seg, 0, 32);
  EXPECT_EQ(host.used_frames(), 32u);
  space.reset();
  EXPECT_EQ(host.used_frames(), 0u);
}

TEST(AddressSpaceTest, SegmentLookupByName) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  AddressSpace space(host);
  space.AddSegment("a", kPageSize);
  const SegmentId b = space.AddSegment("b", kPageSize);
  EXPECT_EQ(space.SegmentByName("b"), b);
  EXPECT_TRUE(space.HasSegment("a"));
  EXPECT_FALSE(space.HasSegment("zzz"));
}

TEST(AddressSpaceDeathTest, AccessBeyondSegmentAborts) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("small", 4 * kPageSize);
  EXPECT_DEATH(space.Touch(seg, 0, 5), "beyond segment");
}

// After Unmap a space maps nothing more: a random-fraction touch or dirty
// would take image references and private frames that nothing releases.
TEST(AddressSpaceDeathTest, RandomFractionTouchAfterUnmapAborts) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  std::shared_ptr<SnapshotImage> image;
  {
    AddressSpace builder(host);
    builder.DirtyBytes(builder.AddSegment("os", 64 * kPageSize), 64 * kPageSize);
    image = builder.TakeSnapshot("img");
  }
  AddressSpace clone(host, image);
  clone.Unmap();
  EXPECT_DEATH(clone.TouchRandomFraction(0, 0.5, 7), "unmapped_");
}

TEST(AddressSpaceDeathTest, RandomFractionDirtyAfterUnmapAborts) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("heap", 64 * kPageSize);
  space.Unmap();
  EXPECT_DEATH(space.DirtyRandomFraction(seg, 0.5, 7), "unmapped_");
}

// ---------------------------------------------------------------------------
// Snapshot / restore: the CoW sharing paths of §3.3 and Fig. 4.
// ---------------------------------------------------------------------------

class SnapshotFixture : public ::testing::Test {
 protected:
  // Builds a "guest" with 64 OS pages + 32 runtime pages, snapshots it.
  void SetUp() override {
    source_ = std::make_unique<AddressSpace>(host_);
    os_ = source_->AddSegment("os", 64 * kPageSize);
    rt_ = source_->AddSegment("runtime", 32 * kPageSize);
    source_->Dirty(os_, 0, 64);
    source_->Dirty(rt_, 0, 32);
    image_ = source_->TakeSnapshot("post-boot");
    source_.reset();  // The source VM is torn down after snapshotting.
  }

  fwobs::Observability obs_{fwtest::StoppedClock()};
  HostMemory host_{1_GiB, obs_};
  std::unique_ptr<AddressSpace> source_;
  SegmentId os_ = 0;
  SegmentId rt_ = 0;
  std::shared_ptr<SnapshotImage> image_;
};

TEST_F(SnapshotFixture, ImageRecordsValidPagesAndFileSize) {
  EXPECT_EQ(image_->valid_pages(), 96u);
  EXPECT_EQ(image_->file_bytes(), 96 * kPageSize);
  EXPECT_EQ(image_->segments().size(), 2u);
  EXPECT_EQ(host_.used_frames(), 0u);  // Nothing resident until a restore touches pages.
}

TEST_F(SnapshotFixture, FirstRestoreFaultsMajorSecondMinor) {
  AddressSpace vm1(host_, image_);
  const FaultCounts f1 = vm1.Touch(vm1.SegmentByName("os"), 0, 64);
  EXPECT_EQ(f1.major_faults, 64u);
  EXPECT_EQ(host_.used_frames(), 64u);

  AddressSpace vm2(host_, image_);
  const FaultCounts f2 = vm2.Touch(vm2.SegmentByName("os"), 0, 64);
  EXPECT_EQ(f2.minor_shared, 64u);
  EXPECT_EQ(f2.major_faults, 0u);
  // Shared pages charge one frame total.
  EXPECT_EQ(host_.used_frames(), 64u);
}

TEST_F(SnapshotFixture, PssSplitsSharedPagesEvenly) {
  AddressSpace vm1(host_, image_);
  AddressSpace vm2(host_, image_);
  vm1.Touch(0, 0, 64);
  vm2.Touch(0, 0, 64);
  EXPECT_DOUBLE_EQ(vm1.pss_bytes(), 32.0 * kPageSize);
  EXPECT_DOUBLE_EQ(vm2.pss_bytes(), 32.0 * kPageSize);
  EXPECT_EQ(vm1.rss_bytes(), 64 * kPageSize);
  EXPECT_EQ(vm1.uss_bytes(), 0u);
}

TEST_F(SnapshotFixture, CowOnWriteUnshares) {
  AddressSpace vm1(host_, image_);
  AddressSpace vm2(host_, image_);
  vm1.Touch(0, 0, 64);
  vm2.Touch(0, 0, 64);
  // vm1 writes 16 of its 64 shared pages.
  const FaultCounts fc = vm1.Dirty(0, 0, 16);
  EXPECT_EQ(fc.cow_copies, 16u);
  // 64 shared frames still resident (vm2 references all), plus 16 private.
  EXPECT_EQ(host_.used_frames(), 80u);
  EXPECT_EQ(vm1.uss_bytes(), 16 * kPageSize);
  // vm1: 16 private + 48 shared/2; vm2: 16 exclusive-shared + 48 shared/2.
  EXPECT_DOUBLE_EQ(vm1.pss_bytes(), (16 + 24) * static_cast<double>(kPageSize));
  EXPECT_DOUBLE_EQ(vm2.pss_bytes(), (16 + 24) * static_cast<double>(kPageSize));
}

TEST_F(SnapshotFixture, WriteToUnfaultedImagePageIsDirectCow) {
  AddressSpace vm(host_, image_);
  const FaultCounts fc = vm.Dirty(0, 0, 4);
  EXPECT_EQ(fc.cow_copies, 4u);
  EXPECT_EQ(vm.uss_bytes(), 4 * kPageSize);
  EXPECT_EQ(image_->backing().resident_pages(), 0u);
}

TEST_F(SnapshotFixture, ReadOfInvalidImagePageIsZeroFill) {
  AddressSpace vm(host_, image_);
  const SegmentId heap = vm.AddSegment("heap", 8 * kPageSize);
  const FaultCounts fc = vm.Touch(heap, 0, 8);
  EXPECT_EQ(fc.zero_fills, 8u);
  EXPECT_EQ(host_.used_frames(), 0u);             // Zero pages are free.
  EXPECT_EQ(vm.rss_bytes(), 8 * kPageSize);       // But count in RSS.
  const FaultCounts fw = vm.Dirty(heap, 0, 8);
  EXPECT_EQ(fw.fresh_writes, 8u);
  EXPECT_EQ(host_.used_frames(), 8u);
}

TEST_F(SnapshotFixture, UnmapOfRestoredVmReleasesSharedRefs) {
  auto vm1 = std::make_unique<AddressSpace>(host_, image_);
  auto vm2 = std::make_unique<AddressSpace>(host_, image_);
  vm1->Touch(0, 0, 64);
  vm2->Touch(0, 0, 64);
  vm1.reset();
  EXPECT_EQ(host_.used_frames(), 64u);  // vm2 keeps the cache warm.
  vm2.reset();
  EXPECT_EQ(host_.used_frames(), 0u);
}

TEST_F(SnapshotFixture, ResnapshotOfResumedVm) {
  // §6: periodically re-generating the snapshot (ASLR mitigation). A resumed
  // VM that dirtied pages can be re-snapshotted; the new image contains the
  // union of its resident and private pages.
  AddressSpace vm(host_, image_);
  vm.Touch(0, 0, 64);
  vm.Dirty(1, 0, 10);
  auto image2 = vm.TakeSnapshot("regen");
  EXPECT_EQ(image2->valid_pages(), 74u);
}

TEST_F(SnapshotFixture, PerSegmentStats) {
  AddressSpace vm(host_, image_);
  vm.Touch(0, 0, 64);
  vm.Dirty(1, 0, 8);
  const auto stats = vm.PerSegmentStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "os");
  EXPECT_EQ(stats[0].resident_shared, 64u);
  EXPECT_EQ(stats[1].private_pages, 8u);
}

// ---------------------------------------------------------------------------
// DirtyRandomFraction: distinct sandboxes must dirty distinct subsets.
// ---------------------------------------------------------------------------

TEST_F(SnapshotFixture, RandomDirtySubsetsDifferBySalt) {
  AddressSpace vm1(host_, image_);
  AddressSpace vm2(host_, image_);
  const FaultCounts f1 = vm1.DirtyRandomFraction(0, 0.5, /*salt=*/111);
  const FaultCounts f2 = vm2.DirtyRandomFraction(0, 0.5, /*salt=*/222);
  // Roughly half the 64 pages each.
  EXPECT_GT(f1.NewPrivatePages(), 20u);
  EXPECT_LT(f1.NewPrivatePages(), 44u);
  EXPECT_GT(f2.NewPrivatePages(), 20u);
  EXPECT_LT(f2.NewPrivatePages(), 44u);
  // The same salt must reproduce the same subset.
  AddressSpace vm3(host_, image_);
  const FaultCounts f3 = vm3.DirtyRandomFraction(0, 0.5, /*salt=*/111);
  EXPECT_EQ(f3.NewPrivatePages(), f1.NewPrivatePages());
}

TEST(AddressSpaceTest, FractionZeroAndOne) {
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(1_GiB, obs);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("s", 32 * kPageSize);
  EXPECT_EQ(space.DirtyRandomFraction(seg, 0.0, 1).NewPrivatePages(), 0u);
  EXPECT_EQ(space.DirtyRandomFraction(seg, 1.0, 1).NewPrivatePages(), 32u);
}

// ---------------------------------------------------------------------------
// Property sweep: for any mix of sharers, the host frame count equals
// (#resident image pages) + (sum of private pages), and PSS sums to it.
// ---------------------------------------------------------------------------

class PssConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(PssConservationTest, PssSumsToHostFrames) {
  const int num_vms = GetParam();
  fwobs::Observability obs(fwtest::StoppedClock());
  HostMemory host(4_GiB, obs);
  std::shared_ptr<SnapshotImage> image;
  {
    AddressSpace src(host);
    const SegmentId seg = src.AddSegment("all", 256 * kPageSize);
    src.Dirty(seg, 0, 256);
    image = src.TakeSnapshot("img");
  }
  std::vector<std::unique_ptr<AddressSpace>> vms;
  for (int i = 0; i < num_vms; ++i) {
    vms.push_back(std::make_unique<AddressSpace>(host, image));
    // Each VM touches a random ~75% and dirties a random ~25%.
    vms.back()->TouchRandomFraction(0, 0.75, /*salt=*/1000 + i);
    vms.back()->DirtyRandomFraction(0, 0.25, /*salt=*/2000 + i);
  }
  double pss_sum = 0.0;
  uint64_t private_sum = 0;
  for (const auto& vm : vms) {
    pss_sum += vm->pss_bytes();
    private_sum += vm->private_pages();
  }
  const uint64_t expect_frames = image->backing().resident_pages() + private_sum;
  EXPECT_EQ(host.used_frames(), expect_frames);
  EXPECT_NEAR(pss_sum, static_cast<double>(host.used_bytes()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(VmCounts, PssConservationTest, ::testing::Values(1, 2, 3, 5, 8, 16));

// ---------------------------------------------------------------------------
// Differential test of the word-parallel fault engine against a per-page
// reference model: the page-at-a-time fault path, frames charged one by one.
// ---------------------------------------------------------------------------

uint64_t RefThreshold(double fraction) {
  return fraction >= 1.0 ? UINT64_MAX
                         : static_cast<uint64_t>(fraction * 18446744073709551616.0);
}

uint64_t RefMixPage(uint64_t salt, uint64_t page) {
  uint64_t z = salt ^ (page * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// A snapshot file in the reference world: valid pages and per-page refcounts
// of the page cache, each residency change charged to the host at once.
struct RefImage {
  RefImage(HostMemory& host, std::vector<bool> valid)
      : host(host), valid(std::move(valid)), refs(this->valid.size(), 0) {}
  ~RefImage() { host.FreeFrames(resident); }

  bool Inc(uint64_t page) {
    if (refs[page]++ > 0) {
      return false;
    }
    host.AllocFrames(1);
    ++resident;
    return true;
  }
  void Dec(uint64_t page) {
    if (--refs[page] == 0) {
      host.FreeFrames(1);
      --resident;
    }
  }

  HostMemory& host;
  std::vector<bool> valid;
  std::vector<uint32_t> refs;
  uint64_t resident = 0;
};

class RefSpace {
 public:
  enum State : uint8_t { kAbsent, kShared, kZero, kPrivate };

  RefSpace(HostMemory& host, std::shared_ptr<RefImage> image, std::vector<uint64_t> seg_pages)
      : host_(host), image_(std::move(image)) {
    for (uint64_t pages : seg_pages) {
      AddSegment(pages);
    }
  }
  ~RefSpace() { Unmap(); }

  void AddSegment(uint64_t pages) {
    bases_.push_back(state_.size());
    sizes_.push_back(pages);
    state_.resize(state_.size() + pages, kAbsent);
    touched_.resize(state_.size(), false);
  }

  FaultCounts Access(size_t seg, uint64_t first, uint64_t count, bool write) {
    FaultCounts out;
    for (uint64_t i = 0; i < count; ++i) {
      AccessPage(bases_[seg] + first + i, write, out);
    }
    return out;
  }

  FaultCounts Fraction(size_t seg, double fraction, uint64_t salt, bool write) {
    const uint64_t threshold = RefThreshold(fraction);
    FaultCounts out;
    for (uint64_t i = 0; i < sizes_[seg]; ++i) {
      if (fraction >= 1.0 || RefMixPage(salt, bases_[seg] + i) < threshold) {
        AccessPage(bases_[seg] + i, write, out);
      }
    }
    return out;
  }

  void Unmap() {
    uint64_t private_pages = 0;
    for (uint64_t page = 0; page < state_.size(); ++page) {
      if (state_[page] == kShared) {
        image_->Dec(page);
      }
      private_pages += state_[page] == kPrivate ? 1 : 0;
      state_[page] = kAbsent;
    }
    host_.FreeFrames(private_pages);
  }

  double Pss() const {
    double pss_pages = static_cast<double>(Count(kPrivate));
    for (uint64_t page = 0; page < state_.size(); ++page) {
      if (state_[page] == kShared) {
        pss_pages += 1.0 / static_cast<double>(image_->refs[page]);
      }
    }
    return pss_pages * static_cast<double>(kPageSize);
  }

  uint64_t Count(State s, size_t seg) const {
    uint64_t n = 0;
    for (uint64_t i = 0; i < sizes_[seg]; ++i) {
      n += state_[bases_[seg] + i] == s ? 1 : 0;
    }
    return n;
  }
  uint64_t Count(State s) const {
    uint64_t n = 0;
    for (size_t seg = 0; seg < sizes_.size(); ++seg) {
      n += Count(s, seg);
    }
    return n;
  }
  bool Touched(uint64_t page) const { return touched_[page]; }
  const std::vector<uint64_t>& sizes() const { return sizes_; }

  std::shared_ptr<RefImage> TakeSnapshot() const {
    std::vector<bool> valid(state_.size());
    for (uint64_t page = 0; page < state_.size(); ++page) {
      valid[page] = state_[page] == kShared || state_[page] == kPrivate;
    }
    return std::make_shared<RefImage>(host_, std::move(valid));
  }

 private:
  void AccessPage(uint64_t page, bool write, FaultCounts& out) {
    State& st = state_[page];
    if (st == kPrivate) {
      ++out.already_mapped;
      return;
    }
    const bool image_valid =
        image_ != nullptr && page < image_->valid.size() && image_->valid[page];
    if (!write) {
      if (st == kShared || st == kZero) {
        ++out.already_mapped;
      } else if (image_valid) {
        ++(image_->Inc(page) ? out.major_faults : out.minor_shared);
        st = kShared;
        touched_[page] = true;
      } else if (image_ == nullptr) {
        host_.AllocFrames(1);
        st = kPrivate;
        ++out.fresh_writes;
      } else {
        st = kZero;
        ++out.zero_fills;
      }
      return;
    }
    if (st == kShared) {
      image_->Dec(page);
      ++out.cow_copies;
    } else if (st == kZero) {
      ++out.fresh_writes;
    } else if (image_valid) {
      touched_[page] = true;
      ++out.cow_copies;
    } else {
      ++out.fresh_writes;
    }
    host_.AllocFrames(1);
    st = kPrivate;
  }

  HostMemory& host_;
  std::shared_ptr<RefImage> image_;
  std::vector<uint64_t> bases_;
  std::vector<uint64_t> sizes_;
  std::vector<State> state_;
  std::vector<bool> touched_;
};

void ExpectSameFaults(const FaultCounts& got, const FaultCounts& want) {
  EXPECT_EQ(got.major_faults, want.major_faults);
  EXPECT_EQ(got.minor_shared, want.minor_shared);
  EXPECT_EQ(got.zero_fills, want.zero_fills);
  EXPECT_EQ(got.cow_copies, want.cow_copies);
  EXPECT_EQ(got.fresh_writes, want.fresh_writes);
  EXPECT_EQ(got.already_mapped, want.already_mapped);
}

// One host with its own registry, for each of the two worlds.
struct World {
  fwobs::Observability obs{fwtest::StoppedClock()};
  HostMemory host{4_GiB, obs};
};

void ExpectSameHost(World& got, World& want) {
  EXPECT_EQ(got.host.used_frames(), want.host.used_frames());
  EXPECT_EQ(got.host.peak_used_bytes(), want.host.peak_used_bytes());
  EXPECT_EQ(got.host.total_freed_frames(), want.host.total_freed_frames());
  EXPECT_EQ(got.obs.metrics().GaugeValue("mem.host.used_bytes"),
            want.obs.metrics().GaugeValue("mem.host.used_bytes"));
  EXPECT_EQ(got.obs.metrics().CounterValue("mem.frame.alloc.count"),
            want.obs.metrics().CounterValue("mem.frame.alloc.count"));
}

void ExpectSameSpace(const AddressSpace& got, const RefSpace& want) {
  const auto stats = got.PerSegmentStats();
  ASSERT_EQ(stats.size(), want.sizes().size());
  for (size_t seg = 0; seg < stats.size(); ++seg) {
    EXPECT_EQ(stats[seg].private_pages, want.Count(RefSpace::kPrivate, seg)) << "segment " << seg;
    EXPECT_EQ(stats[seg].resident_shared, want.Count(RefSpace::kShared, seg)) << "segment " << seg;
    EXPECT_EQ(stats[seg].zero_pages, want.Count(RefSpace::kZero, seg)) << "segment " << seg;
  }
  EXPECT_EQ(got.private_pages(), want.Count(RefSpace::kPrivate));
  EXPECT_EQ(got.shared_resident_pages(), want.Count(RefSpace::kShared));
  for (uint64_t page = 0; page < got.image_touched().size(); ++page) {
    EXPECT_EQ(got.image_touched().Test(page), want.Touched(page)) << "page " << page;
  }
  EXPECT_EQ(got.pss_bytes(), want.Pss());  // Bit-equal, not approximately.
}

void ExpectSameRefs(const SnapshotImage& got, const RefImage& want) {
  ASSERT_EQ(got.total_pages(), want.valid.size());
  EXPECT_EQ(got.backing().resident_pages(), want.resident);
  for (uint64_t page = 0; page < want.valid.size(); ++page) {
    EXPECT_EQ(got.IsValid(page), want.valid[page]) << "page " << page;
    EXPECT_EQ(got.backing().ResidentRefs(page), want.refs[page]) << "page " << page;
  }
}

class FaultEngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Odd sizes, so segment bases fall mid-word and segments end mid-word.
  const std::vector<uint64_t> kSegPages = {37, 64, 100, 3, 129, 70};

  // One random access against both models, on segment `seg`.
  void RandomAccess(AddressSpace& got, RefSpace& want, size_t seg) {
    const uint64_t pages = want.sizes()[seg];
    const bool write = rng_.Chance(0.5);
    FaultCounts real;
    FaultCounts ref;
    if (rng_.Chance(0.5)) {
      const uint64_t first = pages == 0 ? 0 : rng_.UniformU64(pages);
      const uint64_t count = rng_.UniformU64(pages - first + 1);
      real = write ? got.Dirty(static_cast<SegmentId>(seg), first, count)
                   : got.Touch(static_cast<SegmentId>(seg), first, count);
      ref = want.Access(seg, first, count, write);
    } else {
      // Few salts, so clones of one image often pick the same pages.
      const double fractions[] = {0.0, 1.0, 0.02, 0.3, 0.75,
                                  static_cast<double>(rng_.UniformU64(1000)) / 1000.0};
      const double fraction = fractions[rng_.UniformU64(6)];
      const uint64_t salt = rng_.UniformU64(4);
      real = write ? got.DirtyRandomFraction(static_cast<SegmentId>(seg), fraction, salt)
                   : got.TouchRandomFraction(static_cast<SegmentId>(seg), fraction, salt);
      ref = want.Fraction(seg, fraction, salt, write);
    }
    ExpectSameFaults(real, ref);
  }

  fwbase::Rng rng_{GetParam()};
};

TEST_P(FaultEngineDifferentialTest, MatchesPerPageReference) {
  World real;
  World ref;
  // A fresh builder leaves a partially valid image: some pages never
  // touched, some only read, some written.
  auto builder = std::make_unique<AddressSpace>(real.host);
  auto ref_builder = std::make_unique<RefSpace>(ref.host, nullptr, kSegPages);
  for (uint64_t pages : kSegPages) {
    builder->AddSegment("seg", pages * kPageSize);
  }
  for (int op = 0; op < 40; ++op) {
    RandomAccess(*builder, *ref_builder, rng_.UniformU64(kSegPages.size()));
    ExpectSameHost(real, ref);
  }
  ExpectSameSpace(*builder, *ref_builder);
  std::shared_ptr<SnapshotImage> image = builder->TakeSnapshot("img");
  std::shared_ptr<RefImage> ref_image = ref_builder->TakeSnapshot();
  builder.reset();
  ref_builder.reset();
  ExpectSameRefs(*image, *ref_image);
  ExpectSameHost(real, ref);

  // Several clones of the image, each running a random mix of accesses;
  // some grow a segment past the image, some unmap and are restored anew.
  constexpr int kClones = 4;
  std::vector<std::unique_ptr<AddressSpace>> clones;
  std::vector<std::unique_ptr<RefSpace>> ref_clones;
  for (int i = 0; i < kClones; ++i) {
    clones.push_back(std::make_unique<AddressSpace>(real.host, image));
    ref_clones.push_back(std::make_unique<RefSpace>(ref.host, ref_image, kSegPages));
  }
  for (int op = 0; op < 400; ++op) {
    const size_t c = rng_.UniformU64(kClones);
    const uint64_t action = rng_.UniformU64(40);
    if (action == 0) {
      clones[c]->Unmap();
      ref_clones[c]->Unmap();
      ExpectSameHost(real, ref);
      clones[c] = std::make_unique<AddressSpace>(real.host, image);
      ref_clones[c] = std::make_unique<RefSpace>(ref.host, ref_image, kSegPages);
    } else if (action == 1 && ref_clones[c]->sizes().size() == kSegPages.size()) {
      const uint64_t pages = 1 + rng_.UniformU64(90);
      clones[c]->AddSegment("heap", pages * kPageSize);
      ref_clones[c]->AddSegment(pages);
    } else {
      RandomAccess(*clones[c], *ref_clones[c], rng_.UniformU64(ref_clones[c]->sizes().size()));
    }
    ExpectSameHost(real, ref);
    ExpectSameSpace(*clones[c], *ref_clones[c]);
    if (HasFailure()) {
      FAIL() << "diverged at op " << op;
    }
  }
  ExpectSameRefs(*image, *ref_image);
  clones.clear();
  ref_clones.clear();
  ExpectSameHost(real, ref);
  EXPECT_EQ(image->backing().resident_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultEngineDifferentialTest, ::testing::Range<uint64_t>(1, 13));

// Three times more distinct touch keys than the image's pick memo holds,
// through clones of one image: every access still matches the reference,
// the memo stops growing at its bound, and dirties, fractions 0 and 1, and
// segments past the image add no key.
TEST(FaultEngineTest, TouchPickMemoStopsAtItsBound) {
  const std::vector<uint64_t> seg_pages = {37, 300, 129};
  World real;
  World ref;
  std::shared_ptr<SnapshotImage> image;
  {
    AddressSpace builder(real.host);
    for (uint64_t pages : seg_pages) {
      builder.AddSegment("seg", pages * kPageSize);
    }
    builder.Dirty(1, 20, 200);
    builder.Touch(2, 0, 100);
    image = builder.TakeSnapshot("img");
  }
  RefSpace ref_builder(ref.host, nullptr, seg_pages);
  ref_builder.Access(1, 20, 200, /*write=*/true);
  ref_builder.Access(2, 0, 100, /*write=*/false);
  std::shared_ptr<RefImage> ref_image = ref_builder.TakeSnapshot();
  ref_builder.Unmap();

  constexpr size_t kBound = SnapshotImage::kMaxTouchPicks;
  // Key k: segment k % 3, a fraction and salt no other key shares.
  const auto fraction_of = [](uint64_t k) { return 0.05 + 0.03 * static_cast<double>(k); };
  // A parked clone holds every key's pages, so later clones fault minor.
  AddressSpace parked(real.host, image);
  RefSpace ref_parked(ref.host, ref_image, seg_pages);
  for (int round = 0; round < 2; ++round) {
    // Round 0 fills the memo and then runs past it; round 1 runs every key
    // again in a new clone, hits and misses alike.
    AddressSpace vm(real.host, image);
    RefSpace ref_vm(ref.host, ref_image, seg_pages);
    for (uint64_t k = 0; k < 3 * kBound; ++k) {
      const SegmentId seg = static_cast<SegmentId>(k % seg_pages.size());
      if (round == 0) {
        ExpectSameFaults(parked.TouchRandomFraction(seg, fraction_of(k), 100 + k),
                         ref_parked.Fraction(seg, fraction_of(k), 100 + k, /*write=*/false));
      }
      ExpectSameFaults(vm.TouchRandomFraction(seg, fraction_of(k), 100 + k),
                       ref_vm.Fraction(seg, fraction_of(k), 100 + k, /*write=*/false));
      EXPECT_EQ(image->touch_pick_keys(), round == 0 ? std::min<size_t>(k + 1, kBound) : kBound);
    }
    if (round == 0) {
      // Keys that never enter the memo, on a full memo: writes, fractions 0
      // and 1, and a segment past the image.
      const SegmentId extra = vm.AddSegment("heap", 90 * kPageSize);
      ref_vm.AddSegment(90);
      ExpectSameFaults(vm.DirtyRandomFraction(1, 0.3, 7), ref_vm.Fraction(1, 0.3, 7, true));
      ExpectSameFaults(vm.TouchRandomFraction(2, 0.0, 7), ref_vm.Fraction(2, 0.0, 7, false));
      ExpectSameFaults(vm.TouchRandomFraction(0, 1.0, 7), ref_vm.Fraction(0, 1.0, 7, false));
      ExpectSameFaults(vm.TouchRandomFraction(extra, 0.5, 7),
                       ref_vm.Fraction(extra, 0.5, 7, false));
      EXPECT_EQ(image->touch_pick_keys(), kBound);
    }
    ExpectSameHost(real, ref);
    ExpectSameSpace(vm, ref_vm);
    ExpectSameSpace(parked, ref_parked);
    ExpectSameRefs(*image, *ref_image);
  }
  EXPECT_EQ(image->touch_pick_keys(), kBound);
}

// ---------------------------------------------------------------------------
// The page pick and the word refcount loops at every ISA level
// FW_MEM_ISA_CLONES compiles them for. A CI runner executes only its own
// CPU's clone through the engine, so each variant is compiled here on its own
// and checked against a reference: RefMixPage for the pick, a per-page count
// for IncRefsWord / DecRefsWord.
// ---------------------------------------------------------------------------

// out[i] = PickWord(salt, threshold, first_word + i). Always inlined, so each
// wrapper below compiles the loop for its own ISA level, as an engine clone
// does.
[[gnu::always_inline]] inline void PickRun(uint64_t salt, uint64_t threshold,
                                           uint64_t first_word, uint64_t words, uint64_t* out) {
  for (uint64_t i = 0; i < words; ++i) {
    out[i] = PickWord(salt, threshold, first_word + i);
  }
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
[[gnu::target("arch=x86-64-v4")]] void PickRunV4(uint64_t salt, uint64_t threshold,
                                                 uint64_t first_word, uint64_t words,
                                                 uint64_t* out) {
  PickRun(salt, threshold, first_word, words, out);
}
[[gnu::target("arch=x86-64-v3")]] void PickRunV3(uint64_t salt, uint64_t threshold,
                                                 uint64_t first_word, uint64_t words,
                                                 uint64_t* out) {
  PickRun(salt, threshold, first_word, words, out);
}
[[gnu::target("arch=x86-64-v4")]] uint64_t IncRefsV4(uint32_t* refs, uint64_t mask) {
  return IncRefsWord(refs, mask);
}
[[gnu::target("arch=x86-64-v4")]] uint64_t DecRefsV4(uint32_t* refs, uint64_t mask,
                                                     uint64_t& empty) {
  return DecRefsWord(refs, mask, empty);
}
[[gnu::target("arch=x86-64-v3")]] uint64_t IncRefsV3(uint32_t* refs, uint64_t mask) {
  return IncRefsWord(refs, mask);
}
[[gnu::target("arch=x86-64-v3")]] uint64_t DecRefsV3(uint32_t* refs, uint64_t mask,
                                                     uint64_t& empty) {
  return DecRefsWord(refs, mask, empty);
}
#endif
void PickRunBaseline(uint64_t salt, uint64_t threshold, uint64_t first_word, uint64_t words,
                     uint64_t* out) {
  PickRun(salt, threshold, first_word, words, out);
}
uint64_t IncRefsBaseline(uint32_t* refs, uint64_t mask) { return IncRefsWord(refs, mask); }
uint64_t DecRefsBaseline(uint32_t* refs, uint64_t mask, uint64_t& empty) {
  return DecRefsWord(refs, mask, empty);
}

struct IsaVariant {
  std::string name;
  // nullptr: not compiled on this platform.
  void (*pick)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t*);
  uint64_t (*inc)(uint32_t*, uint64_t);
  uint64_t (*dec)(uint32_t*, uint64_t, uint64_t&);
  bool (*supported)();
};

std::vector<IsaVariant> IsaVariants() {
  std::vector<IsaVariant> variants;
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  variants.push_back({"x86_64_v4", PickRunV4, IncRefsV4, DecRefsV4,
                      [] { return __builtin_cpu_supports("x86-64-v4") > 0; }});
  variants.push_back({"x86_64_v3", PickRunV3, IncRefsV3, DecRefsV3,
                      [] { return __builtin_cpu_supports("x86-64-v3") > 0; }});
#else
  variants.push_back({"x86_64_v4", nullptr, nullptr, nullptr, [] { return false; }});
  variants.push_back({"x86_64_v3", nullptr, nullptr, nullptr, [] { return false; }});
#endif
  variants.push_back(
      {"baseline", PickRunBaseline, IncRefsBaseline, DecRefsBaseline, [] { return true; }});
  return variants;
}

void PrintTo(const IsaVariant& variant, std::ostream* os) { *os << variant.name; }

std::string IsaVariantName(const ::testing::TestParamInfo<IsaVariant>& info) {
  return info.param.name;
}

class PickVariantTest : public ::testing::TestWithParam<IsaVariant> {};

TEST_P(PickVariantTest, MatchesReferenceHash) {
  const IsaVariant& variant = GetParam();
  if (variant.pick == nullptr || !variant.supported()) {
    GTEST_SKIP() << "pick variant " << variant.name << " cannot run on this build or CPU";
  }
  fwbase::Rng rng(2024);
  std::vector<uint64_t> salts = {0, 1, 7, 8, 42, 43, 1001, 2002, 5000, 7919 * 3 + 13, UINT64_MAX};
  for (int i = 0; i < 40; ++i) {
    salts.push_back(rng.NextU64());
  }
  for (const double fraction : {0.0, 0.02, 0.04, 0.55, 0.999, 1.0}) {
    const uint64_t threshold = RefThreshold(fraction);
    for (const uint64_t salt : salts) {
      // A page range that starts and ends mid-word, near page 0 or far out.
      const uint64_t first = (rng.Chance(0.2) ? uint64_t{1} << 40 : 0) + 1 + rng.UniformU64(5000);
      const uint64_t end = first + 1 + rng.UniformU64(900);
      const uint64_t first_word = first / kWordPages;
      std::vector<uint64_t> got((end - 1) / kWordPages - first_word + 1);
      variant.pick(salt, threshold, first_word, got.size(), got.data());
      for (uint64_t i = 0; i < got.size(); ++i) {
        const uint64_t wi = first_word + i;
        uint64_t want = 0;
        for (uint64_t bit = 0; bit < kWordPages; ++bit) {
          if (fraction >= 1.0 || RefMixPage(salt, wi * kWordPages + bit) < threshold) {
            want |= uint64_t{1} << bit;
          }
        }
        EXPECT_EQ(got[i], want) << variant.name << " fraction " << fraction << " salt " << salt
                                << " word " << wi;
      }
      if (HasFailure()) {
        FAIL() << variant.name << " diverged at fraction " << fraction << " salt " << salt;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, PickVariantTest, ::testing::ValuesIn(IsaVariants()),
                         IsaVariantName);

class RefcountVariantTest : public ::testing::TestWithParam<IsaVariant> {};

TEST_P(RefcountVariantTest, MatchesPerPageReference) {
  const IsaVariant& variant = GetParam();
  if (variant.inc == nullptr || !variant.supported()) {
    GTEST_SKIP() << "refcount variant " << variant.name << " cannot run on this build or CPU";
  }
  fwbase::Rng rng(2025);
  const uint64_t kLow = 0xFFFFFFFFull;
  // Masks of every shape: empty, one bit (each end of each half), sparse
  // (the set-bit path), one half only, both halves, full.
  std::vector<uint64_t> masks = {0, 1, uint64_t{1} << 31, uint64_t{1} << 32, uint64_t{1} << 63,
                                 kLow, ~kLow, ~uint64_t{0}};
  for (int i = 0; i < 60; ++i) {
    uint64_t sparse = 0;
    for (uint64_t bits = 1 + rng.UniformU64(static_cast<uint64_t>(kSparseWordPages) + 2);
         bits > 0; --bits) {
      sparse |= uint64_t{1} << rng.UniformU64(kWordPages);
    }
    const uint64_t dense = rng.NextU64();
    masks.insert(masks.end(), {sparse, dense, dense & kLow, dense & ~kLow, dense | sparse});
  }
  // Counts at 0, at 1, small and large, in a random lane-by-lane mix.
  const uint32_t kCounts[] = {0, 1, 2, 3, 1000, 0x80000000u, 0xFFFFFFFEu};
  for (const uint64_t inc_mask : masks) {
    const uint64_t dec_mask = rng.Chance(0.5) ? inc_mask : masks[rng.UniformU64(masks.size())];
    std::vector<uint32_t> got(kWordPages);
    for (uint32_t& count : got) {
      count = kCounts[rng.UniformU64(std::size(kCounts))];
    }
    std::vector<uint32_t> want = got;

    uint64_t want_first = 0;
    for (uint64_t b = 0; b < kWordPages; ++b) {
      if ((inc_mask >> b) & 1) {
        want_first += want[b] == 0 ? 1 : 0;
        ++want[b];
      }
    }
    EXPECT_EQ(variant.inc(got.data(), inc_mask), want_first)
        << variant.name << " increment of mask " << std::hex << inc_mask;
    EXPECT_EQ(got, want) << variant.name << " increment of mask " << std::hex << inc_mask;

    uint64_t want_last = 0;
    uint64_t want_empty = 0;
    for (uint64_t b = 0; b < kWordPages; ++b) {
      if ((dec_mask >> b) & 1) {
        want_last += want[b] == 1 ? 1 : 0;
        want_empty += want[b] == 0 ? 1 : 0;
        --want[b];
      }
    }
    uint64_t empty = ~uint64_t{0};
    EXPECT_EQ(variant.dec(got.data(), dec_mask, empty), want_last)
        << variant.name << " decrement of mask " << std::hex << dec_mask;
    EXPECT_EQ(empty, want_empty) << variant.name << " decrement of mask " << std::hex << dec_mask;
    EXPECT_EQ(got, want) << variant.name << " decrement of mask " << std::hex << dec_mask;
    if (HasFailure()) {
      FAIL() << variant.name << " diverged at masks " << std::hex << inc_mask << ", " << dec_mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, RefcountVariantTest, ::testing::ValuesIn(IsaVariants()),
                         IsaVariantName);

// Writing an image page this clone alone maps frees its page-cache frame and
// takes a private one: the host ends where it started, and the peak does not
// move, exactly as when each page was charged on its own.
TEST(FaultEngineTest, CowOfLastReferenceLeavesPeakUnmoved) {
  World real;
  World ref;
  std::shared_ptr<SnapshotImage> image;
  {
    AddressSpace builder(real.host);
    builder.AddSegment("os", 100 * kPageSize);
    builder.Dirty(0, 0, 100);
    image = builder.TakeSnapshot("img");
  }
  RefSpace ref_builder(ref.host, nullptr, {100});
  ref_builder.Access(0, 0, 100, /*write=*/true);
  auto ref_image = ref_builder.TakeSnapshot();
  ref_builder.Unmap();

  AddressSpace vm(real.host, image);
  RefSpace ref_vm(ref.host, ref_image, {100});
  ExpectSameFaults(vm.Touch(0, 3, 90), ref_vm.Access(0, 3, 90, /*write=*/false));
  const uint64_t used = real.host.used_frames();
  const uint64_t peak = real.host.peak_used_bytes();
  const FaultCounts fc = vm.Dirty(0, 10, 70);
  ExpectSameFaults(fc, ref_vm.Access(0, 10, 70, /*write=*/true));
  EXPECT_EQ(fc.cow_copies, 70u);
  EXPECT_EQ(real.host.used_frames(), used);
  EXPECT_EQ(real.host.peak_used_bytes(), peak);
  EXPECT_EQ(real.host.total_freed_frames(), 100u + 70u);  // Builder teardown + 70 cache frames.
  ExpectSameHost(real, ref);
  ExpectSameSpace(vm, ref_vm);
  ExpectSameRefs(*image, *ref_image);
}

}  // namespace
}  // namespace fwmem
