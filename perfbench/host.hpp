// Host facts and process resource usage, so a noisy run can be told apart
// from a slow program: CPU count, vCPU steal over the timed phase (from the
// kernel's /proc/stat counters), CPU time, context switches, and the
// resident-memory high-water mark of the timed phase.
#pragma once

#include <cstdint>

namespace perfbench {

/// Aggregate CPU tick counters of the whole host.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Steal share of all host ticks between two readings (0 when unreadable).
[[nodiscard]] double steal_fraction(const CpuTicks& a, const CpuTicks& b);

/// This process's resource usage.
struct Usage {
  double cpu_seconds = 0.0;  ///< user + system, all threads
  std::int64_t voluntary_switches = 0;
  std::int64_t involuntary_switches = 0;
};
[[nodiscard]] Usage read_usage();

/// Hands freed heap memory back to the kernel and restarts the process's
/// resident-memory high-water mark from its current resident size
/// (/proc/self/clear_refs). False when the kernel refuses.
bool reset_peak_rss();
/// Resident-memory high-water mark (VmHWM) in MiB, 0 when unreadable.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] int online_cpus();

}  // namespace perfbench
