#include "serve/ensemble_session.hpp"

#include <cmath>
#include <utility>

#include "obs/obs.hpp"

namespace turb::serve {

EnsembleSession::EnsembleSession(core::RolloutRequest base,
                                 core::Propagator* primary,
                                 core::Propagator* fallback)
    : base_(std::move(base)),
      guard_(base_.guard),
      calibrator_(base_.guard) {
  TURB_CHECK_MSG(base_.ensemble_k >= 2,
                 "EnsembleSession needs ensemble_k >= 2; K = 1 is a plain "
                 "session");
  members_.reserve(static_cast<std::size_t>(base_.ensemble_k));
  staged_.resize(static_cast<std::size_t>(base_.ensemble_k));
  for (index_t m = 0; m < base_.ensemble_k; ++m) {
    members_.push_back(std::make_unique<core::RolloutStream>(
        core::ensemble_member_request(base_, m), primary, fallback));
  }
  obs::counter("serve/ensemble_sessions").add();
  obs::counter("serve/ensemble_members").add(base_.ensemble_k);
}

void EnsembleSession::stage_window(index_t m,
                                   std::vector<core::FieldSnapshot>&& window) {
  TURB_CHECK(m >= 0 && m < members());
  TURB_CHECK_MSG(staged_[static_cast<std::size_t>(m)].empty(),
                 "member " << m << " staged twice in one round");
  TURB_CHECK(!window.empty());
  staged_[static_cast<std::size_t>(m)] = std::move(window);
  ++staged_count_;
}

void EnsembleSession::commit_round() {
  static obs::Gauge& energy_halfwidth =
      obs::gauge("serve/ensemble_energy_halfwidth");
  static obs::Gauge& enstrophy_halfwidth =
      obs::gauge("serve/ensemble_enstrophy_halfwidth");
  static obs::Gauge& energy_rel_spread =
      obs::gauge("serve/ensemble_energy_rel_spread");
  static obs::Counter& group_trips = obs::counter("serve/ensemble_guard_trips");
  static obs::Counter& guard_trips = obs::counter("robust/guard_trips");
  static obs::Counter& rounds = obs::counter("serve/ensemble_rounds");
  const index_t k = members();
  TURB_CHECK_MSG(staged_count_ == k,
                 "commit_round with " << staged_count_ << " of " << k
                                      << " member windows staged — members "
                                      << "fell out of lockstep");
  const std::size_t n = staged_[0].size();
  std::vector<std::vector<core::SnapshotMetrics>> metrics(
      static_cast<std::size_t>(k));
  for (index_t m = 0; m < k; ++m) {
    const auto& window = staged_[static_cast<std::size_t>(m)];
    TURB_CHECK_MSG(window.size() == n, "member " << m << " produced "
                                                 << window.size() << " vs "
                                                 << n << " snapshots");
    metrics[static_cast<std::size_t>(m)] = core::compute_metrics(window);
  }

  // Judge the K windows snapshot-by-snapshot. With spread calibration on,
  // snapshot j is judged against the spread envelope of the rounds already
  // accepted (check-then-update): its own spread is only staged with the
  // calibrator and folds into the envelope iff this round is accepted, so a
  // diverging member cannot widen the band it is judged against, and a
  // discarded round cannot poison the bands of the rounds after cooldown.
  core::GuardTrip trip = core::GuardTrip::none;
  double value = 0.0;
  std::size_t bad = 0;
  if (base_.guard.enabled) {
    std::vector<double> energies(static_cast<std::size_t>(k));
    std::vector<double> enstrophies(static_cast<std::size_t>(k));
    for (std::size_t j = 0; j < n && trip == core::GuardTrip::none; ++j) {
      if (base_.guard.spread_calibrated) {
        for (index_t m = 0; m < k; ++m) {
          energies[static_cast<std::size_t>(m)] =
              metrics[static_cast<std::size_t>(m)][j].kinetic_energy;
          enstrophies[static_cast<std::size_t>(m)] =
              metrics[static_cast<std::size_t>(m)][j].enstrophy;
        }
        const core::SpreadCalibrator::Bands bands =
            calibrator_.calibrate(energies.data(), enstrophies.data(), k);
        guard_.set_energy_band(bands.energy_min, bands.energy_max);
        guard_.set_enstrophy_max(bands.enstrophy_max);
        energy_halfwidth.set(bands.energy_halfwidth);
        enstrophy_halfwidth.set(bands.enstrophy_halfwidth);
      }
      for (index_t m = 0; m < k; ++m) {
        trip = guard_.check(staged_[static_cast<std::size_t>(m)][j],
                            metrics[static_cast<std::size_t>(m)][j], &value);
        if (trip != core::GuardTrip::none) {
          bad = j;
          break;
        }
      }
    }
  }

  if (trip != core::GuardTrip::none) {
    // Discard the whole round and hand every member to the fallback
    // together — one member leaving the consensus poisons the mean, and
    // lockstep degradation keeps the next staged round aligned. The staged
    // envelope candidates go with it: spread the guard just rejected must
    // not calibrate the bands future rounds are judged against.
    calibrator_.discard_round();
    guard_events_.push_back({produced(), staged_[0][bad].t, trip, value});
    for (index_t m = 0; m < k; ++m) {
      member(m).force_degrade(base_.guard.cooldown_snapshots);
      staged_[static_cast<std::size_t>(m)].clear();
    }
    group_trips.add();
    guard_trips.add();
  } else {
    calibrator_.commit_round();
    double energy_mean = 0.0, energy_spread = 0.0;
    std::vector<double> energies(static_cast<std::size_t>(k));
    for (index_t m = 0; m < k; ++m) {
      energies[static_cast<std::size_t>(m)] =
          metrics[static_cast<std::size_t>(m)][n - 1].kinetic_energy;
    }
    core::anchored_mean_spread(energies.data(), k, &energy_mean,
                               &energy_spread);
    energy_rel_spread.set(
        energy_mean != 0.0 ? energy_spread / std::abs(energy_mean) : 0.0);
    for (index_t m = 0; m < k; ++m) {
      // Hand over the metrics judged above — the member stream must not
      // recompute (spectral diagnostics included) what the round already
      // paid for.
      member(m).accept_primary_window(
          std::move(staged_[static_cast<std::size_t>(m)]),
          std::move(metrics[static_cast<std::size_t>(m)]));
      staged_[static_cast<std::size_t>(m)].clear();
    }
  }
  staged_count_ = 0;
  rounds.add();
}

core::RolloutResult EnsembleSession::take_result() {
  TURB_CHECK_MSG(done(), "take_result on an unfinished ensemble session");
  std::vector<core::RolloutResult> member_results;
  member_results.reserve(members_.size());
  for (auto& m : members_) member_results.push_back(m->take_result());
  return core::reduce_ensemble_members(std::move(member_results),
                                       std::move(guard_events_),
                                       base_.ensemble_keep_members);
}

}  // namespace turb::serve
