#include "src/mem/host_memory.h"

#include "src/base/check.h"

namespace fwmem {

HostMemory::HostMemory(uint64_t total_bytes, fwobs::Observability& obs,
                       double swap_start_fraction)
    : total_bytes_(total_bytes),
      swap_start_fraction_(swap_start_fraction),
      used_bytes_gauge_(obs.metrics().GetGauge("mem.host.used_bytes")),
      alloc_counter_(obs.metrics().GetCounter("mem.frame.alloc.count")),
      profiler_(obs.profiler()),
      page_walk_scope_(profiler_.RegisterScope("mem.page_walk")) {
  FW_CHECK(total_bytes_ > 0);
  FW_CHECK(swap_start_fraction_ > 0.0 && swap_start_fraction_ <= 1.0);
}

void HostMemory::AllocFrames(uint64_t n) {
  used_frames_ += n;
  if (used_frames_ > peak_used_frames_) {
    peak_used_frames_ = used_frames_;
  }
  used_bytes_gauge_.Set(static_cast<double>(used_bytes()));
  alloc_counter_.Increment(n);
}

void HostMemory::FreeFrames(uint64_t n) {
  FW_CHECK_MSG(n <= used_frames_, "freeing more frames than allocated");
  used_frames_ -= n;
  total_freed_frames_ += n;
  used_bytes_gauge_.Set(static_cast<double>(used_bytes()));
}

bool HostMemory::swapping() const { return used_bytes() > swap_threshold_bytes(); }

uint64_t HostMemory::swap_threshold_bytes() const {
  return static_cast<uint64_t>(static_cast<double>(total_bytes_) * swap_start_fraction_);
}

}  // namespace fwmem
