// Exact heap-allocation counts for a bench or test binary.
//
// Linking the fw_alloc_count target replaces the global operator new/delete
// family with malloc/free wrappers that count every allocation and its
// requested bytes. The simulator is single-threaded, so the counts are
// exact: two runs of the same seed perform the same allocations.
// (perfbench/fwperf keeps its own copy: the benchmark builds standalone.)
#ifndef FIREWORKS_BENCH_ALLOC_COUNT_H_
#define FIREWORKS_BENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace fwbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Allocations made by this process since it started.
AllocCounts CurrentAllocCounts();

}  // namespace fwbench

#endif  // FIREWORKS_BENCH_ALLOC_COUNT_H_
