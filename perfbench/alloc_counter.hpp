// Heap-allocation counter for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new family; every
// successful allocation on the calling thread bumps a thread-local count.
// Thread-local keeps the count exact for the single-threaded cells the
// traced run measures, even while other threads allocate.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made by the calling thread so far.
std::uint64_t ThreadAllocations();

}  // namespace perfbench
