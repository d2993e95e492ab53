// Heap-allocation counter for allocation gates (bench_wire). Linking
// alloc_count.cpp into a binary replaces the global operator new/delete
// with counting versions; allocations() reads the running total.
//
// The replacements live in their own translation unit on purpose: inlined
// into a caller's container code, a delete that calls free() on memory
// the compiler saw come from operator new reads as a mismatched pair
// (-Wmismatched-new-delete), even though the matching new is the malloc
// below.
#pragma once

#include <cstdint>

namespace flexran::bench {

/// Every operator new call of the process so far (all threads).
std::uint64_t allocations();

}  // namespace flexran::bench
