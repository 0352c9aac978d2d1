#pragma once

#include <cstdint>

/// Heap-allocation counters for the alloc.* metrics. perf_bench replaces
/// the global operator new/delete (alloc_count.cpp) with versions that
/// count calls and requested bytes per thread, so a caller can take the
/// difference around a call on its own thread and get an exact,
/// schedule-independent count.
namespace perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made so far by the calling thread.
AllocCounts thread_allocs();

}  // namespace perfbench
