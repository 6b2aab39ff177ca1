#include "core/hybrid.hpp"

#include <cmath>

#include "core/rollout_api.hpp"
#include "obs/obs.hpp"

namespace turb::core {

namespace {

// Wall time and snapshot count per propagator window
// ("hybrid/<name>_window" / "hybrid/<name>_snapshots") — the cost split the
// speedup claims of the paper's §VI-C rest on — is shared with the request
// API: detail::advance_timed (core/rollout_api.hpp).
using detail::advance_timed;

void append(History& history, RolloutResult& result,
            std::vector<FieldSnapshot>&& produced,
            std::vector<SnapshotMetrics>&& metrics, const std::string& name,
            index_t max_history) {
  for (std::size_t i = 0; i < produced.size(); ++i) {
    result.metrics.push_back(metrics[i]);
    result.producer.push_back(name);
    history.push_back(produced[i]);
    result.trajectory.push_back(std::move(produced[i]));
    while (static_cast<index_t>(history.size()) > max_history) {
      history.pop_front();
    }
  }
}

}  // namespace

HybridScheduler::HybridScheduler(Propagator& fno, Propagator& pde,
                                 HybridConfig config)
    : fno_(&fno), pde_(&pde), config_(config) {
  TURB_CHECK_MSG(std::abs(fno.dt_snap() - pde.dt_snap()) <
                     1e-12 * fno.dt_snap(),
                 "propagators disagree on snapshot spacing: "
                     << fno.dt_snap() << " vs " << pde.dt_snap());
  TURB_CHECK_MSG(config_.fno_snapshots > 0 || config_.pde_snapshots > 0,
                 "at least one window must be non-empty");
  TURB_CHECK(config_.max_history >= fno.min_history());
  if (config_.guard.enabled) {
    TURB_CHECK_MSG(config_.pde_snapshots > 0 ||
                       config_.guard.cooldown_snapshots > 0,
                   "guarded pure-FNO rollouts need guard.cooldown_snapshots "
                   "> 0 (no pde window to fall back to otherwise)");
  }
}

RolloutResult HybridScheduler::run(const History& seed,
                                   index_t total_snapshots) {
  TURB_CHECK(total_snapshots >= 1);
  TURB_CHECK_MSG(!seed.empty(), "empty seed history");
  if (config_.fno_snapshots > 0) {
    TURB_CHECK_MSG(static_cast<index_t>(seed.size()) >= fno_->min_history(),
                   "seed shorter than the FNO input window");
  }

  RolloutGuard guard(config_.guard);
  History history = seed;
  RolloutResult result;
  result.trajectory.reserve(static_cast<std::size_t>(total_snapshots));

  bool fno_turn = config_.start_with_fno && config_.fno_snapshots > 0;
  index_t produced = 0;
  while (produced < total_snapshots) {
    Propagator* active = fno_turn ? fno_ : pde_;
    const index_t window =
        fno_turn ? config_.fno_snapshots : config_.pde_snapshots;
    if (window == 0) {
      fno_turn = !fno_turn;
      continue;
    }
    const index_t count = std::min(window, total_snapshots - produced);
    std::vector<FieldSnapshot> snaps = advance_timed(*active, history, count);
    std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);

    if (fno_turn && config_.guard.enabled) {
      GuardTrip trip = GuardTrip::none;
      double value = 0.0;
      std::size_t bad = 0;
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        trip = guard.check(snaps[i], metrics[i], &value);
        if (trip != GuardTrip::none) {
          bad = i;
          break;
        }
      }
      if (trip != GuardTrip::none) {
        // Discard the whole window (even its pre-trip snapshots: the model
        // was already leaving the attractor) and degrade to the PDE for a
        // cool-down, after which the FNO gets its turn back.
        obs::counter("robust/guard_trips").add();
        result.guard_events.push_back(
            {static_cast<index_t>(result.trajectory.size()), snaps[bad].t,
             trip, value});
        const index_t cooldown = config_.guard.cooldown_snapshots > 0
                                     ? config_.guard.cooldown_snapshots
                                     : config_.pde_snapshots;
        const index_t fb_count =
            std::min(cooldown, total_snapshots - produced);
        std::vector<FieldSnapshot> fb_snaps =
            advance_timed(*pde_, history, fb_count);
        std::vector<SnapshotMetrics> fb_metrics = compute_metrics(fb_snaps);
        append(history, result, std::move(fb_snaps), std::move(fb_metrics),
               pde_->name() + "_fallback", config_.max_history);
        obs::counter("robust/fallback_windows").add();
        obs::counter("robust/fallback_snapshots").add(fb_count);
        produced += fb_count;
        fno_turn = config_.fno_snapshots > 0;
        continue;
      }
    }

    append(history, result, std::move(snaps), std::move(metrics),
           active->name(), config_.max_history);
    produced += count;
    if (config_.fno_snapshots > 0 && config_.pde_snapshots > 0) {
      fno_turn = !fno_turn;
    }
  }
  return result;
}

}  // namespace turb::core
