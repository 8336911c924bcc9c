#include "bench/alloc_count.h"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace {

uint64_t g_allocs = 0;
uint64_t g_bytes = 0;

void* CountedAlloc(std::size_t n) noexcept {
  ++g_allocs;
  g_bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) noexcept {
  ++g_allocs;
  g_bytes += n;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  return posix_memalign(&p, a, n == 0 ? 1 : n) == 0 ? p : nullptr;
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace fwbench {

AllocCounts CurrentAllocCounts() {
  AllocCounts c;
  c.allocs = g_allocs;
  c.bytes = g_bytes;
  return c;
}

}  // namespace fwbench

void* operator new(std::size_t n) { return OrThrow(CountedAlloc(n)); }
void* operator new[](std::size_t n) { return OrThrow(CountedAlloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return OrThrow(CountedAlignedAlloc(n, a)); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return OrThrow(CountedAlignedAlloc(n, a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
