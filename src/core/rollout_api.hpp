// Unified rollout-request API — the one snapshot-level rollout state
// machine, stepped by three drivers: run_rollout() (examples, benches),
// core::HybridScheduler (the paper's FNO/PDE alternation) and
// serve::RolloutServer (micro-batched sessions and ensembles).
//
//   * RolloutRequest describes a stream: seed history, horizon, guard
//     configuration, and the window chunk a scheduler advances it by.
//   * validate_request() lists what a runnable request needs: RolloutStream
//     throws its reason, the server rejects with it.
//   * RolloutStream executes one request window by window — the granularity
//     the server micro-batches at. Guard checks, fallback cool-downs,
//     scheduled fallback windows, metrics and history rolling live here
//     only, so a request produces the same bytes whichever driver runs it.
//
// Guard semantics (primary windows only): a tripped window is discarded
// wholesale and the fallback takes over for `guard.cooldown_snapshots`
// snapshots; when that is 0, for one scheduled window (the hybrid's PDE
// window); with no scheduled window, for the rest of the request. The
// cool-down runs in fallback windows of at most max(window, scheduled
// window) snapshots, and the primary resumes after it.
#pragma once

#include <string>

#include "core/metrics.hpp"
#include "core/propagator.hpp"
#include "core/rollout_guard.hpp"

namespace turb::obs {
class Counter;
class TimerStat;
}  // namespace turb::obs

namespace turb::core {

/// Rolling-history bound of every rollout: the newest kMaxHistory snapshots
/// are kept, so a primary needing a longer input window is rejected.
inline constexpr index_t kMaxHistory = 64;

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

/// One trajectory-extension request. Consumed by run_rollout() and by
/// serve::RolloutServer::submit().
struct RolloutRequest {
  History seed;           ///< initial history, oldest first (>= min_history)
  index_t steps = 0;      ///< snapshots to produce (>= 1)
  GuardConfig guard;      ///< per-request divergence guard (default off)
  /// Snapshots per scheduling window — the chunk a scheduler advances a
  /// stream by per turn.
  index_t window = 16;
  std::string tag;        ///< client label echoed through serving results

  /// Ensemble UQ (serve::RolloutServer): fan this request out into
  /// `ensemble_k` member streams — member 0 runs the seed unchanged, member
  /// m >= 1 runs a deterministically perturbed copy (core/ensemble.hpp) —
  /// micro-batched together through the shared engine and reduced into one
  /// mean-prediction result with per-snapshot spread. 1 = plain rollout.
  index_t ensemble_k = 1;
  /// Additive seed-perturbation amplitude for members >= 1 (0 = identical
  /// members; the reduction then returns exactly zero variance).
  double ensemble_eps = 1e-3;
  /// Base RNG seed the member perturbations derive from.
  std::uint64_t ensemble_seed = 0x5eedu;
  /// Keep the individual member results inside RolloutResult::member_results
  /// (each bitwise identical to a solo rollout of that member's request).
  bool ensemble_keep_members = false;
};

/// Empty when `primary` and `fallback` space their snapshots equally
/// (dt_snap), else why not: a fallback window must continue the primary's
/// time axis.
[[nodiscard]] std::string spacing_mismatch(const Propagator& primary,
                                           const Propagator& fallback);

/// The first reason `request` cannot run on `primary` with `fallback`
/// (empty when it can): horizon and window >= 1, a seed whose snapshots all
/// hold two rank-2 fields shaped like the newest u1, in a frame the primary
/// takes (Propagator::frame_shape) and, for guarded requests, the fallback
/// too, at least as long as the primary's input window, an input window
/// within kMaxHistory, a fallback for guarded requests, and
/// spacing_mismatch. RolloutStream throws the reason; serve::RolloutServer
/// rejects the submission with it.
[[nodiscard]] std::string validate_request(const RolloutRequest& request,
                                           const Propagator& primary,
                                           const Propagator* fallback);

/// Incremental executor for one request. The caller either lets step()
/// drive the propagators directly, or produces primary windows externally
/// (micro-batched through a shared engine) and feeds them to
/// accept_primary_window() — the two paths run the identical metric / guard
/// / append code, which is what makes concurrent serving bitwise identical
/// to sequential rollouts.
class RolloutStream {
 public:
  /// @param primary           propagator producing normal windows (not
  ///                          owned)
  /// @param fallback          guard fallback and scheduled-window propagator
  ///                          (not owned; may be null iff the guard is off
  ///                          and scheduled_window is 0)
  /// @param scheduled_window  snapshots the fallback produces after every
  ///                          accepted primary window, under its plain name
  ///                          — the hybrid's PDE window (only
  ///                          HybridScheduler sets it); 0 = none
  RolloutStream(RolloutRequest request, Propagator* primary,
                Propagator* fallback, index_t scheduled_window = 0);

  [[nodiscard]] bool done() const { return produced_ >= request_.steps; }
  /// True while the guard keeps the stream on the fallback propagator
  /// (cool-down in progress, or degraded for good).
  [[nodiscard]] bool degraded() const {
    return !done() && (degraded_for_good_ || cooldown_left_ > 0);
  }
  /// Snapshots the next window should produce (0 when done).
  [[nodiscard]] index_t next_window() const;

  /// Feed one primary-produced window of exactly next_window() snapshots
  /// (only valid while the fallback is not due). Computes metrics, runs the
  /// guard, and either appends the window or discards it and arms the
  /// fallback.
  void accept_primary_window(std::vector<FieldSnapshot>&& snaps);

  /// Same, with per-snapshot metrics the caller already computed (one per
  /// snapshot, from compute_metrics on these exact fields) — the ensemble
  /// round path judges on member metrics first and must not pay for them
  /// twice.
  void accept_primary_window(std::vector<FieldSnapshot>&& snaps,
                             std::vector<SnapshotMetrics>&& metrics);

  /// Produce the next window from the fallback propagator: the scheduled
  /// window after a primary window, or a cool-down / degraded window.
  void advance_fallback_window();

  /// Externally-decided degradation (serve::EnsembleSession: a group-level
  /// spread-calibrated guard trips on one member and hands the whole group
  /// to the fallback), under the same cool-down rule as a guard trip.
  /// Requires a fallback propagator.
  void force_degrade(index_t cooldown_snapshots);

  /// Advance one window through whichever side is due, driving the
  /// propagators directly. run_rollout() is a loop over this.
  void step();

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] index_t produced() const { return produced_; }
  [[nodiscard]] const RolloutRequest& request() const { return request_; }
  [[nodiscard]] const RolloutResult& result() const { return result_; }
  /// Move the accumulated result out (the stream must be done()).
  [[nodiscard]] RolloutResult take_result();

 private:
  /// A propagator with its window accounting ("hybrid/<name>_window" span,
  /// "hybrid/<name>_snapshots" counter), resolved once at construction.
  struct Side {
    Propagator* propagator = nullptr;
    std::string name;
    obs::TimerStat* window = nullptr;
    obs::Counter* snapshots = nullptr;
  };
  static Side make_side(Propagator* propagator);
  std::vector<FieldSnapshot> advance(const Side& side, index_t count);
  [[nodiscard]] bool fallback_due() const {
    return (scheduled_due_ && !done()) || degraded();
  }
  void append_window(std::vector<FieldSnapshot>&& snaps,
                     std::vector<SnapshotMetrics>&& metrics,
                     const std::string& producer);

  RolloutRequest request_;
  Side primary_;
  Side fallback_;
  std::string fallback_label_;  ///< "<fallback>_fallback"
  index_t scheduled_window_;
  RolloutGuard guard_;
  History history_;
  RolloutResult result_;
  index_t produced_ = 0;
  index_t cooldown_left_ = 0;
  bool degraded_for_good_ = false;
  bool scheduled_due_ = false;  ///< the scheduled fallback window is next
};

/// Run `request` to completion against `primary`, with `fallback` taking
/// over after guard trips (required iff request.guard.enabled). The unified
/// synchronous entry point: the examples route through it, and
/// serve::RolloutServer produces byte-identical results per stream.
RolloutResult run_rollout(Propagator& primary, const RolloutRequest& request,
                          Propagator* fallback = nullptr);

}  // namespace turb::core
