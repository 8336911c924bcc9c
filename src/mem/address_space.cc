#include "src/mem/address_space.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/base/check.h"
#include "src/mem/page_pick.h"

namespace fwmem {
namespace {

uint64_t Popcount(uint64_t w) { return static_cast<uint64_t>(std::popcount(w)); }

}  // namespace

FW_MEM_ISA_CLONES void PickWords(uint64_t salt, uint64_t threshold, uint64_t first_word,
                                 uint64_t words, uint64_t* out) {
  for (uint64_t i = 0; i < words; ++i) {
    out[i] = PickWord(salt, threshold, first_word + i);
  }
}

FaultCounts& FaultCounts::operator+=(const FaultCounts& o) {
  major_faults += o.major_faults;
  minor_shared += o.minor_shared;
  zero_fills += o.zero_fills;
  cow_copies += o.cow_copies;
  fresh_writes += o.fresh_writes;
  already_mapped += o.already_mapped;
  return *this;
}

SnapshotImage::SnapshotImage(HostMemory& host, std::string name,
                             std::vector<SegmentLayout> segments, PageSet valid)
    : name_(std::move(name)),
      segments_(std::move(segments)),
      valid_(std::move(valid)),
      backing_(host, valid_.size()) {}

AddressSpace::AddressSpace(HostMemory& host)
    : host_(host), resident_shared_(0), private_(0), zero_(0), image_touched_(0) {}

AddressSpace::AddressSpace(HostMemory& host, std::shared_ptr<SnapshotImage> image)
    : host_(host),
      image_(std::move(image)),
      segments_(image_->segments()),
      total_pages_(image_->total_pages()),
      resident_shared_(total_pages_),
      private_(total_pages_),
      zero_(total_pages_),
      image_touched_(total_pages_),
      guest_identity_(image_->guest_identity()) {}

AddressSpace::~AddressSpace() { Unmap(); }

void AddressSpace::GrowTo(uint64_t pages) {
  resident_shared_.Grow(pages);
  private_.Grow(pages);
  zero_.Grow(pages);
  image_touched_.Grow(pages);
  total_pages_ = pages;
}

SegmentId AddressSpace::AddSegment(const std::string& name, uint64_t bytes) {
  FW_CHECK(!unmapped_);
  const uint64_t pages = fwbase::PagesFor(bytes);
  segments_.push_back(SegmentLayout{name, total_pages_, pages});
  GrowTo(total_pages_ + pages);
  return static_cast<SegmentId>(segments_.size() - 1);
}

SegmentId AddressSpace::SegmentByName(const std::string& name) const {
  const SegmentId seg = FindSegment(name);
  FW_CHECK_MSG(seg != kNoSegment, ("no segment named " + name).c_str());
  return seg;
}

SegmentId AddressSpace::FindSegment(const std::string& name) const {
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].name == name) {
      return static_cast<SegmentId>(i);
    }
  }
  return kNoSegment;
}

uint64_t AddressSpace::SegmentPages(SegmentId seg) const {
  FW_CHECK(seg < segments_.size());
  return segments_[seg].pages;
}

void AddressSpace::AccessWord(uint64_t wi, uint64_t mask, bool write, FaultCounts& out) {
  // The three page states are disjoint bits: a page is in at most one of
  // private_, resident_shared_ and zero_, and in none while not present.
  const uint64_t priv = private_.word(wi);
  const uint64_t shared = resident_shared_.word(wi);
  const uint64_t zero = zero_.word(wi);
  const uint64_t absent = mask & ~(priv | shared | zero);
  const uint64_t valid = image_ != nullptr ? image_->ValidWord(wi) : 0;
  const uint64_t page0 = wi * kWordPages;

  if (!write) {
    out.already_mapped += Popcount(mask & ~absent);
    if (image_ == nullptr) {
      // Fresh space: a guest "reading" fresh content had to produce it first
      // (kernel decompression, file load into RAM) — private frame.
      private_.SetBits(wi, absent);
      out.fresh_writes += Popcount(absent);
      return;
    }
    const uint64_t from_image = absent & valid;
    BackingStore& backing = image_->backing();
    for (uint64_t w = from_image; w != 0; w &= w - 1) {
      if (backing.IncResident(page0 + static_cast<uint64_t>(std::countr_zero(w)))) {
        ++out.major_faults;
      } else {
        ++out.minor_shared;
      }
    }
    resident_shared_.SetBits(wi, from_image);
    image_touched_.SetBits(wi, from_image);
    // Image-backed space reading a page the image has no content for: shared
    // zero page, no frame charge.
    zero_.SetBits(wi, absent & ~valid);
    out.zero_fills += Popcount(absent & ~valid);
    return;
  }

  // Write access: every page not yet private takes a private frame.
  out.already_mapped += Popcount(mask & priv);
  const uint64_t cow = mask & shared;
  if (cow != 0) {
    // Copy-on-write: drop the shared reference.
    BackingStore& backing = image_->backing();
    for (uint64_t w = cow; w != 0; w &= w - 1) {
      backing.DecResident(page0 + static_cast<uint64_t>(std::countr_zero(w)));
    }
    resident_shared_.ClearBits(wi, cow);
  }
  zero_.ClearBits(wi, mask & zero);
  // A write to a not-yet-resident image page still reads the content, then
  // immediately breaks the mapping private.
  image_touched_.SetBits(wi, absent & valid);
  private_.SetBits(wi, mask & ~priv);
  out.cow_copies += Popcount(cow) + Popcount(absent & valid);
  out.fresh_writes += Popcount(mask & zero) + Popcount(absent & ~valid);
}

void AddressSpace::Settle(const FaultCounts& out) {
  if (image_ != nullptr) {
    image_->backing().Settle();
  }
  if (out.NewPrivatePages() > 0) {
    host_.AllocFrames(out.NewPrivatePages());
  }
}

FW_MEM_ISA_CLONES FaultCounts AddressSpace::AccessRange(SegmentId seg, uint64_t first,
                                                        uint64_t count, bool write) {
  FW_CHECK(!unmapped_);
  FW_CHECK(seg < segments_.size());
  FW_PROFILE_SCOPE_ID(host_.profiler(), host_.page_walk_scope());
  const auto& layout = segments_[seg];
  FW_CHECK_MSG(first + count <= layout.pages, "access beyond segment end");
  FaultCounts out;
  const uint64_t begin = layout.base_page + first;
  ForEachWordIn(begin, begin + count,
                [&](uint64_t wi, uint64_t mask) { AccessWord(wi, mask, write, out); });
  Settle(out);
  return out;
}

FaultCounts AddressSpace::Touch(SegmentId seg, uint64_t first, uint64_t count) {
  return AccessRange(seg, first, count, /*write=*/false);
}

FaultCounts AddressSpace::Dirty(SegmentId seg, uint64_t first, uint64_t count) {
  return AccessRange(seg, first, count, /*write=*/true);
}

FaultCounts AddressSpace::TouchBytes(SegmentId seg, uint64_t bytes) {
  const uint64_t pages = std::min(fwbase::PagesFor(bytes), SegmentPages(seg));
  return Touch(seg, 0, pages);
}

FaultCounts AddressSpace::DirtyBytes(SegmentId seg, uint64_t bytes) {
  const uint64_t pages = std::min(fwbase::PagesFor(bytes), SegmentPages(seg));
  return Dirty(seg, 0, pages);
}

FW_MEM_ISA_CLONES FaultCounts AddressSpace::AccessRandomFraction(SegmentId seg, double fraction,
                                                                 uint64_t salt, bool write) {
  FW_CHECK(fraction >= 0.0 && fraction <= 1.0);
  FW_CHECK(seg < segments_.size());
  FW_PROFILE_SCOPE_ID(host_.profiler(), host_.page_walk_scope());
  const auto& layout = segments_[seg];
  const uint64_t threshold = FractionThreshold(fraction);
  FaultCounts out;
  ForEachWordIn(layout.base_page, layout.base_page + layout.pages,
                [&](uint64_t wi, uint64_t span) {
                  const uint64_t mask = PickWord(salt, threshold, wi) & span;
                  if (mask != 0) {
                    AccessWord(wi, mask, write, out);
                  }
                });
  Settle(out);
  return out;
}

FaultCounts AddressSpace::DirtyRandomFraction(SegmentId seg, double fraction, uint64_t salt) {
  return AccessRandomFraction(seg, fraction, salt, /*write=*/true);
}

FaultCounts AddressSpace::TouchRandomFraction(SegmentId seg, double fraction, uint64_t salt) {
  return AccessRandomFraction(seg, fraction, salt, /*write=*/false);
}

std::shared_ptr<SnapshotImage> AddressSpace::TakeSnapshot(const std::string& name) const {
  FW_CHECK(!unmapped_);
  PageSet valid(total_pages_);
  valid.UnionWith(resident_shared_);
  valid.UnionWith(private_);
  auto image = std::make_shared<SnapshotImage>(host_, name, segments_, std::move(valid));
  // The guest's identity record is memory content: it freezes into the image
  // with everything else, and every clone restored from the image inherits it.
  image->set_guest_identity(guest_identity_);
  return image;
}

void AddressSpace::Unmap() {
  if (unmapped_) {
    return;
  }
  if (image_ != nullptr) {
    BackingStore& backing = image_->backing();
    resident_shared_.ForEachSet([&backing](uint64_t page) { backing.DecResident(page); });
    backing.Settle();
  }
  host_.FreeFrames(private_.Count());
  resident_shared_.ClearAll();
  private_.ClearAll();
  zero_.ClearAll();
  unmapped_ = true;
}

uint64_t AddressSpace::rss_bytes() const {
  return (resident_shared_.Count() + private_.Count() + zero_.Count()) * fwbase::kPageSize;
}

uint64_t AddressSpace::uss_bytes() const { return private_.Count() * fwbase::kPageSize; }

double AddressSpace::pss_bytes() const {
  double pss_pages = static_cast<double>(private_.Count());
  if (image_ != nullptr) {
    // Ascending page order, one page at a time: the sum is bit-stable.
    const BackingStore& backing = image_->backing();
    resident_shared_.ForEachSet([&backing, &pss_pages](uint64_t page) {
      pss_pages += 1.0 / static_cast<double>(backing.ResidentRefs(page));
    });
  }
  return pss_pages * static_cast<double>(fwbase::kPageSize);
}

std::vector<SegmentStats> AddressSpace::PerSegmentStats() const {
  std::vector<SegmentStats> out;
  out.reserve(segments_.size());
  for (const auto& layout : segments_) {
    SegmentStats s;
    s.name = layout.name;
    s.pages = layout.pages;
    s.resident_shared = resident_shared_.CountRange(layout.base_page, layout.pages);
    s.private_pages = private_.CountRange(layout.base_page, layout.pages);
    s.zero_pages = zero_.CountRange(layout.base_page, layout.pages);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace fwmem
