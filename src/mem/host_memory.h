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
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace fwmem {

class HostMemory {
 public:
  // `swap_start_fraction` models the vm.swappiness-style threshold: swapping
  // is reported once used/total exceeds it.
  explicit HostMemory(uint64_t total_bytes, double swap_start_fraction = 0.6);

  // Optional: mirror frame accounting into the host's metrics registry
  // ("mem.host.used_bytes" gauge, "mem.frame.alloc.count" counter). The
  // registry must outlive this object.
  void set_metrics(fwobs::MetricsRegistry* metrics);

  // Optional: attribute page-table-walk cost on every AddressSpace backed by
  // this host to the profiler's "mem.page_walk" scope. The profiler must
  // outlive this object; pass nullptr to detach.
  void set_profiler(fwobs::Profiler* profiler) {
    profiler_ = profiler;
    page_walk_scope_ = profiler == nullptr ? 0 : profiler->RegisterScope("mem.page_walk");
  }
  fwobs::Profiler* profiler() const { return profiler_; }
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

  // Lifetime counters (for benches / sanity checks).
  uint64_t total_allocated_frames() const { return total_allocated_frames_; }
  uint64_t total_freed_frames() const { return total_freed_frames_; }

 private:
  uint64_t total_bytes_;
  double swap_start_fraction_;
  uint64_t used_frames_ = 0;
  uint64_t peak_used_frames_ = 0;
  uint64_t total_allocated_frames_ = 0;
  uint64_t total_freed_frames_ = 0;
  fwobs::Gauge* used_bytes_gauge_ = nullptr;
  fwobs::Counter* alloc_counter_ = nullptr;
  fwobs::Profiler* profiler_ = nullptr;
  fwobs::ProfScopeId page_walk_scope_ = 0;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_HOST_MEMORY_H_
