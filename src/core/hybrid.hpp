// HybridScheduler — the paper's contribution (§V, §VI-C).
//
// The scheduler alternates between two propagators in fixed windows: the FNO
// surrogate produces `fno_snapshots` cheap predictions, then the PDE solver
// takes over for `pde_snapshots`, re-imposing the governing physics
// (divergence-free velocity, dissipation) before the surrogate resumes. With
// fno_snapshots = 0 the rollout is pure PDE; with pde_snapshots = 0 it is a
// pure FNO rollout — the three curves of Figs. 8–9 come from one code path.
//
// The alternation runs through the same core::RolloutStream every other
// driver steps (core/rollout_api.hpp): the FNO is the stream's primary, and
// the PDE is its fallback, running a scheduled pde_snapshots window after
// every FNO window.
#pragma once

#include "core/propagator.hpp"
#include "core/rollout_api.hpp"
#include "core/rollout_guard.hpp"

namespace turb::core {

struct HybridConfig {
  index_t fno_snapshots = 5;  ///< surrogate window length (0 = pure PDE)
  index_t pde_snapshots = 5;  ///< solver window length (0 = pure FNO)
  /// Optional divergence guard over FNO windows (disabled by default; with
  /// the guard off — or on but untripped — the rollout is bitwise identical
  /// to the unguarded scheduler). A tripped FNO window is discarded and
  /// replaced by a PDE cool-down (GuardConfig::cooldown_snapshots), recorded
  /// as "<pde>_fallback" in RolloutResult::producer and as a GuardEvent.
  GuardConfig guard;
};

class HybridScheduler {
 public:
  /// Both propagators must share the same dt_snap (checked).
  HybridScheduler(Propagator& fno, Propagator& pde, HybridConfig config);

  /// Extend `seed` (the initial history, oldest first) by `total_snapshots`.
  /// The seed must satisfy the FNO's min_history when fno windows are
  /// enabled.
  RolloutResult run(const History& seed, index_t total_snapshots);

 private:
  Propagator* fno_;
  Propagator* pde_;
  HybridConfig config_;
};

}  // namespace turb::core
