// Exact heap-allocation counts for the benchmark binary.
//
// alloc_count.cc replaces the global operator new/delete family with
// malloc/free wrappers that count every allocation and its requested bytes.
// The simulator is single-threaded, so plain counters are exact: two runs of
// the same seed perform the same allocations, and the benchmark checks that
// they do.
#ifndef FWPERF_ALLOC_COUNT_H_
#define FWPERF_ALLOC_COUNT_H_

#include <cstdint>

namespace fwperf {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Allocations made by this process since it started.
AllocCounts CurrentAllocCounts();

}  // namespace fwperf

#endif  // FWPERF_ALLOC_COUNT_H_
