// Ensemble uncertainty quantification for FNO rollouts — the core pieces
// behind serve::EnsembleSession (PAPERS.md, arxiv 2506.04898: ensemble
// spread is the principled trustworthiness signal for neural-operator
// turbulence rollouts).
//
// Three concerns live here, all deterministic and serving-agnostic:
//
//   * Member construction — `ensemble_member_request` derives member m's
//     solo request from the base request: member 0 runs the seed unchanged,
//     member m >= 1 runs an additively perturbed copy keyed by
//     (ensemble_seed, m, snapshot). A K-member serving session is therefore
//     exactly K solo rollouts that happen to share micro-batches, which is
//     what makes the member-bitwise determinism contract testable.
//   * Reduction — member trajectories reduce to a mean prediction plus
//     per-snapshot spread (EnsembleSnapshotSpread). All statistics are
//     member-0-anchored: every sum runs over deviations d_m = x_m − x_0, so
//     K = 1 and bitwise-identical members produce an exactly-zero variance
//     and a mean bitwise equal to member 0 — no rounding dust from x·K/K.
//   * Band calibration — `SpreadCalibrator` turns the rolling across-member
//     spread envelope into energy/enstrophy guard band half-widths, so
//     RolloutGuard trips become confidence-driven ("this member left the
//     ensemble consensus") instead of fixed-box heuristics.
#pragma once

#include <vector>

#include "core/metrics.hpp"
#include "core/rollout_api.hpp"

namespace turb::core {

/// Member m's seed history: member 0 is `seed` unchanged (bitwise); member
/// m >= 1 adds eps·δ to every velocity sample, δ ~ U[-1, 1) from an Rng
/// keyed by (ensemble_seed, m, snapshot index). eps == 0 returns `seed`
/// unchanged for every member.
[[nodiscard]] History perturb_member_seed(const History& seed,
                                          std::uint64_t ensemble_seed,
                                          index_t member, double eps);

/// The solo request ensemble member m of `base` executes: perturbed seed,
/// ensemble_k = 1, guard disabled (divergence detection is the group-level
/// calibrated guard's job, so an untripped member is a pure primary
/// rollout — the bitwise member-vs-solo contract).
[[nodiscard]] RolloutRequest ensemble_member_request(const RolloutRequest& base,
                                                     index_t member);

/// Member-0-anchored mean and population standard deviation of k values.
void anchored_mean_spread(const double* values, index_t k, double* mean,
                          double* spread);

/// Reduce K finished member results into one combined result: mean
/// trajectory (member-0-anchored), per-snapshot EnsembleSnapshotSpread,
/// metrics recomputed on the mean fields, producer labels from member 0,
/// and the given group-level guard events. With keep_members the member
/// results are moved into RolloutResult::member_results.
[[nodiscard]] RolloutResult reduce_ensemble_members(
    std::vector<RolloutResult>&& members, std::vector<GuardEvent> guard_events,
    bool keep_members);

/// Rolling ensemble-spread envelope → guard band calibration
/// (GuardConfig::spread_calibrated). Purely a function of the member metric
/// sequences fed to it, so calibrated bands reproduce bit-for-bit across
/// runs of the same ensemble.
///
/// Check-then-update: a snapshot is judged against the envelope as it stood
/// BEFORE that snapshot — its own spread is only *staged*, and folds into
/// the committed envelope when the round is accepted (commit_round). The
/// two rules this enforces:
///
///   * A diverging member must not widen the very band it is judged
///     against. If the current spread entered the envelope first, the max
///     member deviation (bounded by spread·√(K−1)) could never exceed
///     spread_band_factor · spread for any factor ≥ √(K−1), and the
///     consensus guard would be mathematically unable to trip.
///   * A discarded round must not poison future bands. Spread observed in
///     windows the guard rejected is exactly the divergence the envelope
///     exists to detect; only accepted rounds calibrate.
///
/// The very first calibrate() call seeds the committed envelope instead of
/// judging against an empty one: snapshot 0 reflects the deliberate member
/// perturbation (the ensemble's demonstrated initial variability), and no
/// divergence verdict is possible before a baseline exists.
class SpreadCalibrator {
 public:
  explicit SpreadCalibrator(const GuardConfig& config) : config_(config) {}

  /// Calibrated bands for one cross-member snapshot.
  struct Bands {
    double energy_min = 0.0;
    double energy_max = 0.0;
    double enstrophy_max = 0.0;
    double energy_halfwidth = 0.0;
    double enstrophy_halfwidth = 0.0;
  };

  /// Bands snapshot j must be judged against, from the committed envelope
  /// as of the last accepted round —
  ///   half-width = spread_band_factor · max(envelope,
  ///                                         spread_floor_rel · |mean|)
  /// — while this snapshot's own spread is staged for commit_round().
  [[nodiscard]] Bands calibrate(const double* energies,
                                const double* enstrophies, index_t k);

  /// The round was accepted: fold the staged spread maxima into the
  /// committed envelope.
  void commit_round();

  /// The round tripped and its windows were discarded: drop the staged
  /// spread so the rejected divergence cannot widen future bands.
  void discard_round();

  [[nodiscard]] double energy_spread_envelope() const { return env_energy_; }

 private:
  GuardConfig config_;
  double env_energy_ = 0.0;      ///< committed: accepted rounds + seed
  double env_enstrophy_ = 0.0;
  double staged_energy_ = 0.0;   ///< this round, pending commit/discard
  double staged_enstrophy_ = 0.0;
  bool seeded_ = false;
};

}  // namespace turb::core
