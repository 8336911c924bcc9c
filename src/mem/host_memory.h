// HostMemory: aggregate physical-frame accounting for one host machine.
//
// Every resident page on the host — whether a page-cache frame shared by many
// microVM mappings or a private anonymous frame — charges exactly one frame
// here. The Fig. 10 consolidation experiment launches microVMs until the
// "swapping" threshold is crossed, mirroring the paper's vm.swappiness = 60
// methodology (swapping is considered to start once 60 % of physical memory is
// consumed).
#ifndef FIREWORKS_SRC_MEM_HOST_MEMORY_H_
#define FIREWORKS_SRC_MEM_HOST_MEMORY_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/obs/observability.h"

namespace fwmem {

class HostMemory {
 public:
  // `obs` keeps the frame accounting ("mem.host.used_bytes" gauge,
  // "mem.frame.alloc.count" counter), and its profiler's "mem.page_walk"
  // scope takes the page-table-walk cost on every AddressSpace backed by this
  // host; it must outlive this object. `swap_start_fraction` models the
  // vm.swappiness-style threshold: swapping is reported once used/total
  // exceeds it.
  HostMemory(uint64_t total_bytes, fwobs::Observability& obs, double swap_start_fraction = 0.6);

  fwobs::Profiler& profiler() const { return profiler_; }
  fwobs::ProfScopeId page_walk_scope() const { return page_walk_scope_; }

  void AllocFrames(uint64_t n);
  void FreeFrames(uint64_t n);

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t used_bytes() const { return used_frames_ * fwbase::kPageSize; }
  uint64_t used_frames() const { return used_frames_; }
  uint64_t peak_used_bytes() const { return peak_used_frames_ * fwbase::kPageSize; }

  // True once the swap threshold has been crossed.
  bool swapping() const;
  uint64_t swap_threshold_bytes() const;

  // Lifetime count of freed frames (allocations are "mem.frame.alloc.count").
  uint64_t total_freed_frames() const { return total_freed_frames_; }

 private:
  uint64_t total_bytes_;
  double swap_start_fraction_;
  uint64_t used_frames_ = 0;
  uint64_t peak_used_frames_ = 0;
  // Kept here because the registry has no freed-frames counter.
  uint64_t total_freed_frames_ = 0;
  fwobs::Gauge& used_bytes_gauge_;
  fwobs::Counter& alloc_counter_;
  fwobs::Profiler& profiler_;
  fwobs::ProfScopeId page_walk_scope_;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_HOST_MEMORY_H_
