#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
// Trivially constructible, so it is usable from operator new before any
// dynamic initialisation and on every thread the library spawns.
thread_local AllocCounts t_allocs;
}  // namespace

AllocCounts thread_allocs() { return t_allocs; }

}  // namespace perfbench

namespace {
void* counted_alloc(std::size_t n) {
  ++perfbench::t_allocs.calls;
  perfbench::t_allocs.bytes += n;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The nothrow forms and the array forms' defaults forward to these; the
// over-aligned forms keep the library's aligned_alloc/free pair and are
// not counted (nothing in the simulator uses over-aligned types).
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
