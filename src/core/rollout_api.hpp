// Unified rollout-request API — the single snapshot-level rollout entry
// point the serving layer, the examples, and the benches drive. A serving
// layer multiplexing thousands of streams needs one request/result
// vocabulary, so:
//
//   * RolloutRequest describes a stream: seed history, horizon, guard
//     configuration, and scheduling hints (window chunk, batch hint).
//   * RolloutStream executes one request incrementally — window by window —
//     which is exactly the granularity the serving scheduler micro-batches
//     at. Guard checks, fallback cool-downs, metrics, and history rolling
//     all live here, so a request produces the same bytes whether it runs
//     synchronously (run_rollout) or multiplexed through serve::RolloutServer.
//   * run_rollout() drives a stream to completion synchronously.
//
// Guard semantics (primary windows only, mirroring HybridScheduler): a
// tripped window is discarded wholesale and the fallback propagator takes
// over for `guard.cooldown_snapshots` snapshots — or, when that is 0, for
// the remainder of the request (the serving degrade-for-good policy: a bad
// surrogate stream finishes on physics alone).
#pragma once

#include <memory>
#include <string>

#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/propagator.hpp"
#include "core/rollout_guard.hpp"

namespace turb::core {

/// One trajectory-extension request. Consumed by run_rollout() and by
/// serve::RolloutServer::submit().
struct RolloutRequest {
  History seed;           ///< initial history, oldest first (>= min_history)
  index_t steps = 0;      ///< snapshots to produce (>= 1)
  GuardConfig guard;      ///< per-request divergence guard (default off)
  index_t max_history = 64;  ///< rolling-history truncation bound
  /// Snapshots per scheduling window — the chunk a scheduler advances a
  /// stream by per turn.
  index_t window = 16;
  /// Serving hint: how many sibling streams the scheduler may co-batch with
  /// this one (1 = no preference; capped by ServeConfig::batch_window).
  index_t batch_hint = 1;
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

/// Incremental executor for one request: the scheduler-facing state machine
/// behind both run_rollout() and the serving layer's sessions. The caller
/// either lets step() drive the propagators directly, or produces primary
/// windows externally (micro-batched through a shared engine) and feeds them
/// to accept_primary_window() — the two paths run the identical metric /
/// guard / append code, which is what makes concurrent serving bitwise
/// identical to sequential rollouts.
class RolloutStream {
 public:
  /// @param primary   propagator producing normal windows (not owned)
  /// @param fallback  guard fallback (not owned; may be null iff guard off)
  RolloutStream(RolloutRequest request, Propagator* primary,
                Propagator* fallback);

  [[nodiscard]] bool done() const { return produced_ >= request_.steps; }
  /// True when the next window must come from the fallback propagator
  /// (guard cool-down in progress, or the stream degraded for good).
  [[nodiscard]] bool degraded() const {
    return !done() && (degraded_for_good_ || cooldown_left_ > 0);
  }
  /// Snapshots the next window should produce (0 when done).
  [[nodiscard]] index_t next_window() const;

  /// Feed one primary-produced window of exactly next_window() snapshots
  /// (only valid while !degraded()). Computes metrics, runs the guard, and
  /// either appends the window or discards it and arms the fallback.
  void accept_primary_window(std::vector<FieldSnapshot>&& snaps);

  /// Same, with per-snapshot metrics the caller already computed (one per
  /// snapshot, from compute_metrics on these exact fields) — the ensemble
  /// round path judges on member metrics first and must not pay for them
  /// twice.
  void accept_primary_window(std::vector<FieldSnapshot>&& snaps,
                             std::vector<SnapshotMetrics>&& metrics);

  /// Produce one window from the fallback propagator (cool-down / degraded).
  void advance_fallback_window();

  /// Externally-decided degradation (serve::EnsembleSession: a group-level
  /// spread-calibrated guard trips on one member and hands the whole group
  /// to the fallback). cooldown_snapshots > 0 arms a cool-down; 0 degrades
  /// for the remainder, mirroring the per-stream guard policy. Requires a
  /// fallback propagator.
  void force_degrade(index_t cooldown_snapshots);

  /// Advance one window through whichever side is due, driving the
  /// propagators directly. run_rollout() is a loop over this.
  void step();

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] index_t produced() const { return produced_; }
  [[nodiscard]] const RolloutRequest& request() const { return request_; }
  [[nodiscard]] const RolloutResult& result() const { return result_; }
  [[nodiscard]] const RolloutGuard& guard() const { return guard_; }
  /// Move the accumulated result out (the stream must be done()).
  [[nodiscard]] RolloutResult take_result();

 private:
  void append_window(std::vector<FieldSnapshot>&& snaps,
                     std::vector<SnapshotMetrics>&& metrics,
                     const std::string& producer);

  RolloutRequest request_;
  Propagator* primary_;
  Propagator* fallback_;
  RolloutGuard guard_;
  History history_;
  RolloutResult result_;
  index_t produced_ = 0;
  index_t cooldown_left_ = 0;
  bool degraded_for_good_ = false;
};

/// Run `request` to completion against `primary`, with `fallback` taking
/// over after guard trips (required iff request.guard.enabled). The unified
/// synchronous entry point: the examples route through it, and
/// serve::RolloutServer produces byte-identical results per stream.
RolloutResult run_rollout(Propagator& primary, const RolloutRequest& request,
                          Propagator* fallback = nullptr);

namespace detail {
/// Advance with the per-window obs accounting every scheduler shares
/// ("hybrid/<name>_window" span + "hybrid/<name>_snapshots" counter).
std::vector<FieldSnapshot> advance_timed(Propagator& propagator,
                                         const History& history,
                                         index_t count);
}  // namespace detail

}  // namespace turb::core
