// The benchmark's workloads (see README.md for why each was chosen).
//
//   hybrid_tc   1 thread, closed loop: each request rolls one held-out seed
//               0.1 t_c forward with HybridScheduler (a 5-snapshot FNO and a
//               5-snapshot PDE window) and, on a cadence, with the pure PDE
//               on the same seed.
//   serve_open  1 thread, RolloutServer: open-loop Poisson arrivals
//               (phase A), closed saturating bursts (phase B), and a short
//               hybrid segment on the same seeds.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< timed budget of this worker process
  bool trace = false;      ///< traced run: per-layer metrics
  int proc = 0;            ///< worker index within the run
  int procs = 1;           ///< worker processes in the run
  bool tiny = false;       ///< self-test sizes
  /// Self-test: replace the hybrid's FNO propagator by a diverging one, so
  /// the determinism / finiteness checks must fail.
  bool inject_divergence = false;
  std::string trace_out;   ///< span records file (traced run)
};

/// Global pool width a workload pins (0 for an unknown workload).
int workload_threads(const std::string& workload);

/// Run one worker's share of the workload and fill `report`.
void run_workload(const Options& options, Report& report);

}  // namespace perfbench
