#include "core/rollout_guard.hpp"

#include <cmath>
#include <vector>

#include "ns/spectral_ops.hpp"

namespace turb::core {

const char* guard_trip_name(GuardTrip trip) {
  switch (trip) {
    case GuardTrip::none: return "none";
    case GuardTrip::non_finite: return "non_finite";
    case GuardTrip::energy_low: return "energy_low";
    case GuardTrip::energy_high: return "energy_high";
    case GuardTrip::enstrophy_high: return "enstrophy_high";
    case GuardTrip::spectral_tail: return "spectral_tail";
  }
  return "unknown";
}

GuardTrip RolloutGuard::check(const FieldSnapshot& snapshot,
                              const SnapshotMetrics& metrics,
                              double* offending_value) {
  const auto report = [offending_value](GuardTrip trip, double value) {
    if (offending_value != nullptr) *offending_value = value;
    return trip;
  };
  if (!config_.enabled) return GuardTrip::none;

  // Any NaN/inf in the fields propagates into these sums of squares, so the
  // finite check on the global diagnostics covers the whole snapshot.
  if (!std::isfinite(metrics.kinetic_energy) ||
      !std::isfinite(metrics.enstrophy) ||
      !std::isfinite(metrics.divergence_l2)) {
    return report(GuardTrip::non_finite, metrics.kinetic_energy);
  }
  if (metrics.kinetic_energy < config_.energy_min) {
    return report(GuardTrip::energy_low, metrics.kinetic_energy);
  }
  if (metrics.kinetic_energy > config_.energy_max) {
    return report(GuardTrip::energy_high, metrics.kinetic_energy);
  }
  if (metrics.enstrophy > config_.enstrophy_max) {
    return report(GuardTrip::enstrophy_high, metrics.enstrophy);
  }
  if (config_.tail_fraction_max < 1.0) {
    const std::vector<double> spectrum =
        ns::energy_spectrum(snapshot.u1, snapshot.u2);
    double total = 0.0;
    double tail = 0.0;
    const std::size_t k_max = spectrum.empty() ? 0 : spectrum.size() - 1;
    const std::size_t cutoff = 2 * k_max / 3;
    for (std::size_t k = 0; k < spectrum.size(); ++k) {
      total += spectrum[k];
      if (k >= cutoff) tail += spectrum[k];
    }
    if (total > 0.0 && tail / total > config_.tail_fraction_max) {
      return report(GuardTrip::spectral_tail, tail / total);
    }
  }
  return GuardTrip::none;
}

}  // namespace turb::core
