// AddressSpace and SnapshotImage: the guest-physical memory of one sandbox.
//
// An AddressSpace is a flat, segment-labelled guest-physical space. Segments
// give the language-runtime and VMM layers names for the regions they manage
// (guest kernel, runtime code, JIT code cache, heap, …). Pages move through
// three states:
//
//   not-present ──read──▶ resident-shared (backed by a snapshot image page in
//                         the host page cache, charged 1/N to each mapper)
//   not-present ──write─▶ private (own host frame)
//   resident-shared ──write─▶ private (copy-on-write, own host frame)
//
// A *fresh* space (no image) models a cold-booted sandbox: the guest writes
// everything it loads, so both reads and writes of fresh content allocate
// private frames and nothing is shared between sandboxes.
//
// Accesses are applied 64 pages at a time, one bitmap word per step, with
// the same per-page results as a page-by-page walk (DESIGN.md §3).
//
// TakeSnapshot() freezes the current content into an immutable SnapshotImage;
// FromImage() creates a new space whose pages fault in lazily from the image,
// exactly the MAP_PRIVATE restore path of Firecracker snapshots (§3.3, Fig 4).
#ifndef FIREWORKS_SRC_MEM_ADDRESS_SPACE_H_
#define FIREWORKS_SRC_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/mem/backing_store.h"
#include "src/mem/host_memory.h"
#include "src/mem/page_set.h"

namespace fwmem {

using SegmentId = uint32_t;
// Names no segment; every access through it fails its bounds check.
inline constexpr SegmentId kNoSegment = UINT32_MAX;

struct SegmentLayout {
  std::string name;
  uint64_t base_page;
  uint64_t pages;
};

// Guest-visible identity state that a snapshot captures byte-for-byte along
// with memory: the runtime's PRNG state, its monotonic-clock base, and the
// counter behind "unique" request ids. Every clone restored from the same
// image wakes with an identical copy — the collision the vmgenid-style resume
// protocol exists to fix (DESIGN.md §15). `observed_generation` is the last
// VM generation the guest acknowledged; a restore that bumps the VM past it
// obligates a reseed before the clone serves traffic.
struct GuestIdentityRecord {
  uint64_t rng_state[4] = {0, 0, 0, 0};   // xoshiro256** state words
  int64_t monotonic_base_ns = 0;          // guest CLOCK_MONOTONIC at capture
  uint64_t next_request_id = 1;           // serial behind NextRequestId()
  uint64_t observed_generation = 0;       // last acknowledged VM generation
  bool valid = false;                     // false until a runtime seeds it
};

class SnapshotImage {
 public:
  SnapshotImage(HostMemory& host, std::string name, std::vector<SegmentLayout> segments,
                PageSet valid);

  const std::string& name() const { return name_; }
  const std::vector<SegmentLayout>& segments() const { return segments_; }
  uint64_t total_pages() const { return valid_.size(); }
  // Pages with stored content; determines the snapshot file size on disk.
  uint64_t valid_pages() const { return valid_.Count(); }
  uint64_t file_bytes() const { return valid_pages() * fwbase::kPageSize; }
  bool IsValid(uint64_t page) const { return valid_.Test(page); }
  // Word `wi` of the valid-page bitmap (see kWordPages); 0 past the image.
  uint64_t ValidWord(uint64_t wi) const { return wi < valid_.num_words() ? valid_.word(wi) : 0; }

  BackingStore& backing() { return backing_; }
  const BackingStore& backing() const { return backing_; }

  // Whether the snapshot file's pages are resident in the host page cache.
  // A freshly-written image is warm (the installer just wrote it); a cold
  // image (host restart, cache pressure, remote store) pays a disk read per
  // first-touch fault until prefetched. Managed by the storage/VMM layers.
  bool cache_warm() const { return cache_warm_; }
  void set_cache_warm(bool warm) { cache_warm_ = warm; }

  // REAP working set (Ustiugov et al.): the image pages a first invocation
  // actually faulted in, recorded by the platform after the recording run.
  // Restores prefetch exactly these pages instead of the whole file.
  bool has_working_set() const { return working_set_ != nullptr; }
  const std::shared_ptr<const PageSet>& working_set() const { return working_set_; }
  void set_working_set(std::shared_ptr<const PageSet> ws) { working_set_ = std::move(ws); }
  uint64_t working_set_pages() const {
    return working_set_ != nullptr ? working_set_->Count() : 0;
  }
  uint64_t working_set_bytes() const { return working_set_pages() * fwbase::kPageSize; }

  // Guest identity frozen into this image at TakeSnapshot() time. Part of the
  // image like any other bytes: every space restored from it starts with this
  // exact record (see GuestIdentityRecord).
  const GuestIdentityRecord& guest_identity() const { return guest_identity_; }
  void set_guest_identity(const GuestIdentityRecord& identity) { guest_identity_ = identity; }

 private:
  bool cache_warm_ = false;
  std::string name_;
  std::vector<SegmentLayout> segments_;
  PageSet valid_;
  BackingStore backing_;
  std::shared_ptr<const PageSet> working_set_;
  GuestIdentityRecord guest_identity_;
};

// Per-access fault/accounting result; the caller (VMM / runtime) converts the
// counts into simulated latency.
struct FaultCounts {
  uint64_t major_faults = 0;   // Image content read from disk into the page cache.
  uint64_t minor_shared = 0;   // Mapped an image page already in the page cache.
  uint64_t zero_fills = 0;     // Read of content-less page (shared zero page, no frame).
  uint64_t cow_copies = 0;     // Write to a shared page; private frame allocated + copy.
  uint64_t fresh_writes = 0;   // Write with no prior content; private frame allocated.
  uint64_t already_mapped = 0; // No fault.

  uint64_t NewPrivatePages() const { return cow_copies + fresh_writes; }
  uint64_t Faults() const {
    return major_faults + minor_shared + zero_fills + cow_copies + fresh_writes;
  }
  FaultCounts& operator+=(const FaultCounts& o);
};

struct SegmentStats {
  std::string name;
  uint64_t pages = 0;
  uint64_t resident_shared = 0;
  uint64_t private_pages = 0;
  uint64_t zero_pages = 0;
};

class AddressSpace {
 public:
  // Fresh (cold-boot) space.
  explicit AddressSpace(HostMemory& host);
  // Space restored from a snapshot image: layout is cloned, every page starts
  // not-present and faults in from the image on access.
  AddressSpace(HostMemory& host, std::shared_ptr<SnapshotImage> image);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Appends a segment; returns its id. Ids are dense and stable.
  SegmentId AddSegment(const std::string& name, uint64_t bytes);
  // Looks a segment up by name; FW_CHECKs that it exists.
  SegmentId SegmentByName(const std::string& name) const;
  // Looks a segment up by name; kNoSegment when there is none.
  SegmentId FindSegment(const std::string& name) const;
  bool HasSegment(const std::string& name) const { return FindSegment(name) != kNoSegment; }
  const std::vector<SegmentLayout>& segments() const { return segments_; }
  uint64_t SegmentPages(SegmentId seg) const;

  // Read access to [first, first+count) pages of a segment.
  FaultCounts Touch(SegmentId seg, uint64_t first, uint64_t count);
  // Write access to [first, first+count) pages of a segment.
  FaultCounts Dirty(SegmentId seg, uint64_t first, uint64_t count);
  // Prefix helpers operating on byte sizes (rounded up to pages).
  FaultCounts TouchBytes(SegmentId seg, uint64_t bytes);
  FaultCounts DirtyBytes(SegmentId seg, uint64_t bytes);
  // Writes a deterministic pseudo-random `fraction` of the segment's pages;
  // `salt` individualises the subset (different sandboxes dirty different
  // pages, so CoW sharing degrades realistically rather than uniformly).
  FaultCounts DirtyRandomFraction(SegmentId seg, double fraction, uint64_t salt);
  // Reads a deterministic pseudo-random `fraction` of the segment's pages.
  // Contract: touches pick the hot set that every clone of an image shares
  // (callers pass program-wide salts), while dirties diverge per clone.
  FaultCounts TouchRandomFraction(SegmentId seg, double fraction, uint64_t salt);

  // Freezes current content (resident ∪ private pages) into an image.
  std::shared_ptr<SnapshotImage> TakeSnapshot(const std::string& name) const;

  // Releases every frame and mapping (sandbox teardown). Idempotent.
  void Unmap();

  // smem-style metrics (§5.4). RSS counts all mapped pages including zero
  // pages; USS counts only private frames; PSS charges shared pages 1/refs.
  uint64_t rss_bytes() const;
  uint64_t uss_bytes() const;
  double pss_bytes() const;
  uint64_t shared_resident_pages() const { return resident_shared_.Count(); }
  uint64_t private_pages() const { return private_.Count(); }

  std::vector<SegmentStats> PerSegmentStats() const;

  bool image_backed() const { return image_ != nullptr; }
  const std::shared_ptr<SnapshotImage>& image() const { return image_; }

  // Pages this space faulted in *from the image* (major/minor reads and
  // read-then-privatise writes; zero-fills excluded). This is the raw signal
  // the REAP working-set recorder persists after a first invocation.
  const PageSet& image_touched() const { return image_touched_; }

  // Guest identity living in this space. The runtime model keeps it current
  // (it is guest memory, modeled explicitly instead of hidden in a segment);
  // TakeSnapshot() captures it and the image-backed constructor restores it.
  const GuestIdentityRecord& guest_identity() const { return guest_identity_; }
  void set_guest_identity(const GuestIdentityRecord& identity) { guest_identity_ = identity; }

 private:
  // The two word loops run at the host's ISA: each is compiled once per
  // x86-64 level with AccessWord and the pick inlined (src/mem/page_pick.h).
  FaultCounts AccessRange(SegmentId seg, uint64_t first, uint64_t count, bool write);
  FaultCounts AccessRandomFraction(SegmentId seg, double fraction, uint64_t salt, bool write);
  // The fault engine: one read or write of the pages in `mask`, all within
  // bitmap word `wi`, counted into `out`. Host frames are charged by Settle.
  void AccessWord(uint64_t wi, uint64_t mask, bool write, FaultCounts& out);
  // Charges the host once for an access call's frame changes: page-cache
  // frees first, then every allocation.
  void Settle(const FaultCounts& out);
  void GrowTo(uint64_t pages);

  HostMemory& host_;
  std::shared_ptr<SnapshotImage> image_;
  std::vector<SegmentLayout> segments_;
  uint64_t total_pages_ = 0;
  PageSet resident_shared_;
  PageSet private_;
  PageSet zero_;
  PageSet image_touched_;
  GuestIdentityRecord guest_identity_;
  bool unmapped_ = false;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_ADDRESS_SPACE_H_
