// HybridScheduler — the paper's contribution (§V, §VI-C).
//
// The scheduler alternates between two propagators in fixed windows: the FNO
// surrogate produces `fno_snapshots` cheap predictions, then the PDE solver
// takes over for `pde_snapshots`, re-imposing the governing physics
// (divergence-free velocity, dissipation) before the surrogate resumes. With
// fno_snapshots = 0 the rollout is pure PDE; with pde_snapshots = 0 it is a
// pure FNO rollout — the three curves of Figs. 8–9 come from one code path.
#pragma once

#include <functional>
#include <memory>

#include "core/metrics.hpp"
#include "core/propagator.hpp"
#include "core/rollout_guard.hpp"

namespace turb::core {

struct HybridConfig {
  index_t fno_snapshots = 5;  ///< surrogate window length (0 = pure PDE)
  index_t pde_snapshots = 5;  ///< solver window length (0 = pure FNO)
  bool start_with_fno = true; ///< which propagator opens the alternation
  index_t max_history = 64;   ///< rolling-history truncation
  /// Optional divergence guard over FNO windows (disabled by default; with
  /// the guard off — or on but untripped — the rollout is bitwise identical
  /// to the unguarded scheduler). A tripped FNO window is discarded and
  /// replaced by a PDE cool-down, recorded as "<pde>_fallback" in
  /// RolloutResult::producer and as a GuardEvent.
  GuardConfig guard;
};

struct RolloutResult {
  std::vector<FieldSnapshot> trajectory;  ///< produced snapshots, in order
  std::vector<SnapshotMetrics> metrics;   ///< diagnostics per snapshot
  std::vector<std::string> producer;      ///< which propagator made each one
  std::vector<GuardEvent> guard_events;   ///< discarded-window trips, in order

  /// Ensemble UQ (serve::RolloutServer with RolloutRequest::ensemble_k > 1):
  /// how many member rollouts this result reduces over (1 = plain rollout),
  /// the per-snapshot spread diagnostics (one entry per trajectory snapshot;
  /// empty for plain rollouts), and — when the request asked to keep them —
  /// the individual member results (each bitwise identical to a solo rollout
  /// of that member's perturbed seed).
  index_t ensemble_members = 1;
  std::vector<EnsembleSnapshotSpread> spread;
  std::vector<RolloutResult> member_results;

  [[nodiscard]] index_t guard_trips() const {
    return static_cast<index_t>(guard_events.size());
  }
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
