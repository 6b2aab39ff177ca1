// Global heap-allocation counter. alloc_count.cpp replaces the global
// operator new; it counts only while counting is switched on (the traced
// run), so the untimed and untraced paths pay one relaxed load per
// allocation.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
/// Allocations (every operator new variant) since process start while
/// counting was on.
[[nodiscard]] std::int64_t alloc_count();

}  // namespace perfbench
