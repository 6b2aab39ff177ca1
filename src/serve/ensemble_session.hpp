// EnsembleSession — K-member ensemble UQ fan-out for one logical serving
// session (PAPERS.md, arxiv 2506.04898).
//
// A request with ensemble_k = K >= 2 becomes K member RolloutStreams built
// by core::ensemble_member_request: member 0 runs the seed unchanged,
// members 1..K-1 run deterministically perturbed copies. The server's
// scheduler co-batches the member streams through the shared engine exactly
// like K independent sessions — which is the determinism contract: an
// untripped member is bitwise identical to a solo run_rollout of that
// member's request, at any pool width.
//
// What the group adds on top of K solo streams:
//
//   * Round staging — the scheduler stages each member's freshly produced
//     window here instead of accepting it into the member stream, then calls
//     commit_round() once all members have produced. The group therefore
//     judges the K windows *together* before any member's trajectory moves.
//   * Spread-calibrated guarding — with GuardConfig::spread_calibrated, the
//     group guard's energy/enstrophy bands are re-derived per snapshot from
//     the across-member spread envelope of the rounds accepted so far
//     (core::SpreadCalibrator, check-then-update); a trip means a member
//     left the ensemble consensus. On a trip the whole round is discarded —
//     its staged envelope contribution included — and every member degrades
//     to the fallback together (cool-down or for good), keeping the members
//     in lockstep — the precondition for the next staged round to line up
//     again.
//   * Reduction — take_result() reduces the finished members into one mean
//     prediction with per-snapshot variance / relative spread
//     (core::reduce_ensemble_members), optionally keeping the member results.
#pragma once

#include <memory>
#include <vector>

#include "core/ensemble.hpp"
#include "core/rollout_api.hpp"

namespace turb::serve {

class EnsembleSession {
 public:
  /// Builds ensemble_k member streams from `base` (which must have
  /// ensemble_k >= 2; admission validates). `primary`/`fallback` are shared
  /// by every member, not owned.
  EnsembleSession(core::RolloutRequest base, core::Propagator* primary,
                  core::Propagator* fallback);

  [[nodiscard]] index_t members() const {
    return static_cast<index_t>(members_.size());
  }
  [[nodiscard]] core::RolloutStream& member(index_t m) {
    return *members_[static_cast<std::size_t>(m)];
  }

  /// Members advance in lockstep, so these mirror member 0.
  [[nodiscard]] bool done() const { return members_[0]->done(); }
  [[nodiscard]] bool degraded() const { return members_[0]->degraded(); }
  [[nodiscard]] index_t produced() const { return members_[0]->produced(); }

  /// Group-level guard events so far (take_result() moves them out).
  [[nodiscard]] index_t guard_trips() const {
    return static_cast<index_t>(guard_events_.size());
  }

  /// Stage member m's freshly produced primary window for this round.
  void stage_window(index_t m, std::vector<core::FieldSnapshot>&& window);

  /// True when stage_window has been called since the last commit_round.
  [[nodiscard]] bool round_pending() const { return staged_count_ > 0; }

  /// Judge the staged round: calibrate the guard bands from the member
  /// spread (when configured), check every member snapshot, then either
  /// accept all member windows or — on any trip — discard them all and
  /// degrade every member to the fallback together.
  void commit_round();

  /// Reduce the finished members into the combined ensemble result.
  [[nodiscard]] core::RolloutResult take_result();

 private:
  core::RolloutRequest base_;
  std::vector<std::unique_ptr<core::RolloutStream>> members_;
  core::RolloutGuard guard_;              ///< group-level, from base_.guard
  core::SpreadCalibrator calibrator_;
  std::vector<std::vector<core::FieldSnapshot>> staged_;
  index_t staged_count_ = 0;
  std::vector<core::GuardEvent> guard_events_;
};

}  // namespace turb::serve
