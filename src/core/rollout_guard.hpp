// RolloutGuard — physics sanity monitor for FNO rollout windows.
//
// The paper (§VI-C, Figs. 8–9) shows pure FNO rollouts drifting off the
// turbulence attractor; the hybrid scheme keeps statistics physical by
// hard-coding PDE windows at fixed intervals. The guard automates that
// handoff: each produced snapshot is scanned for non-finite values and
// physics violations (kinetic energy / enstrophy outside configurable bands,
// energy pile-up in the high-wavenumber tail of the spectrum — the aliasing
// signature of a diverging surrogate). When an FNO window trips,
// core::RolloutStream (core/rollout_api.hpp), which every rollout driver
// steps, discards it and degrades to the PDE propagator for a cool-down, so
// divergence becomes a detected, recoverable event instead of a silently
// corrupted trajectory.
#pragma once

#include <limits>
#include <string>

#include "core/metrics.hpp"
#include "core/propagator.hpp"

namespace turb::core {

enum class GuardTrip {
  none = 0,
  non_finite,      ///< NaN/inf anywhere in the snapshot
  energy_low,      ///< kinetic energy below the band (flow died)
  energy_high,     ///< kinetic energy above the band (blow-up)
  enstrophy_high,  ///< enstrophy above the band
  spectral_tail,   ///< too much energy in the high-wavenumber shells
};

[[nodiscard]] const char* guard_trip_name(GuardTrip trip);

struct GuardConfig {
  bool enabled = false;  ///< default off: guarded == unguarded when untripped
  double energy_min = 0.0;
  double energy_max = std::numeric_limits<double>::infinity();
  double enstrophy_max = std::numeric_limits<double>::infinity();
  /// Maximum fraction of kinetic energy allowed in shells k ≥ ⅔·k_max.
  /// 1.0 disables the check (it costs an FFT per snapshot).
  double tail_fraction_max = 1.0;
  /// Fallback snapshots produced after a trip before the primary gets
  /// another turn. 0 means one scheduled PDE window (the hybrid's
  /// pde_snapshots), or — with no scheduled PDE window — the rest of the
  /// request. The same rule holds for every driver.
  index_t cooldown_snapshots = 0;

  /// Ensemble-spread calibration (serve::EnsembleSession, K >= 2): when set,
  /// the energy/enstrophy bands above are re-derived every snapshot from the
  /// rolling across-member spread envelope —
  ///   band = mean ± spread_band_factor · max(spread_envelope,
  ///                                          spread_floor_rel · |mean|)
  /// — so a trip means "this member left the ensemble consensus", not "this
  /// member left a hand-tuned box". The fixed limits above remain the
  /// fallback whenever no spread signal exists (K = 1, or calibration off).
  bool spread_calibrated = false;
  double spread_band_factor = 8.0;  ///< band half-width in spread units
  double spread_floor_rel = 1e-4;   ///< relative floor under the envelope
};

/// One recorded trip: where in the trajectory the discarded FNO window would
/// have started, when the offending snapshot was, and why it was rejected.
struct GuardEvent {
  index_t trajectory_index = 0;
  double t = 0.0;
  GuardTrip reason = GuardTrip::none;
  double value = 0.0;  ///< the offending metric (energy, fraction, …)
};

/// Copyable: the serving layer stamps out one instance per stream (a trivial
/// value copy).
class RolloutGuard {
 public:
  RolloutGuard() = default;  ///< disabled guard (config.enabled = false)
  explicit RolloutGuard(const GuardConfig& config) : config_(config) {}

  /// Verdict for one produced snapshot; `metrics` are the diagnostics the
  /// scheduler already computes per snapshot. When tripped and
  /// `offending_value` is non-null it receives the violating quantity.
  [[nodiscard]] GuardTrip check(const FieldSnapshot& snapshot,
                                const SnapshotMetrics& metrics,
                                double* offending_value = nullptr);

  /// Spread-calibration write-through (serve::EnsembleSession): replace the
  /// energy band / enstrophy ceiling for the next check() calls.
  void set_energy_band(double energy_min, double energy_max) {
    config_.energy_min = energy_min;
    config_.energy_max = energy_max;
  }
  void set_enstrophy_max(double enstrophy_max) {
    config_.enstrophy_max = enstrophy_max;
  }

  [[nodiscard]] const GuardConfig& config() const { return config_; }

 private:
  GuardConfig config_;
};

}  // namespace turb::core
