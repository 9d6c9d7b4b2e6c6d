#pragma once
// Process memory introspection for the scale benchmarks and the matrix-free
// audit: peak RSS is the honest "did we ever hold a dense n×n object"
// witness, complementing the KernelMatrix eval-budget guard (which catches
// the kernel paths but not an accidental dense temporary elsewhere).

#include <cstddef>

namespace khss::util {

/// Peak resident set size in bytes since process start (VmHWM, falling back
/// to getrusage's ru_maxrss).  0 if unavailable.
std::size_t peak_rss_bytes();

}  // namespace khss::util
