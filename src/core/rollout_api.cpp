#include "core/rollout_api.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"

namespace turb::core {

namespace {

/// Why `propagator` cannot advance snapshots of shape `frame` (empty when
/// it can): the frame differs from a non-empty Propagator::frame_shape().
std::string frame_mismatch(const Propagator& propagator, const Shape& frame) {
  const Shape need = propagator.frame_shape();
  if (need.empty() || need == frame) return {};
  return "seed frame " + shape_to_string(frame) + " does not fit " +
         propagator.name() + ", which needs " + shape_to_string(need);
}

}  // namespace

std::string spacing_mismatch(const Propagator& primary,
                             const Propagator& fallback) {
  if (std::abs(primary.dt_snap() - fallback.dt_snap()) <
      1e-12 * primary.dt_snap()) {
    return {};
  }
  std::ostringstream os;
  os << "propagators disagree on snapshot spacing: " << primary.name() << " "
     << primary.dt_snap() << " vs " << fallback.name() << " "
     << fallback.dt_snap();
  return os.str();
}

std::string validate_request(const RolloutRequest& request,
                             const Propagator& primary,
                             const Propagator* fallback) {
  if (request.steps < 1) return "request.steps must be >= 1";
  if (request.window < 1) return "request.window must be >= 1";
  if (request.seed.empty()) return "empty seed history";
  const Shape& frame = request.seed.back().u1.shape();
  for (std::size_t i = 0; i < request.seed.size(); ++i) {
    const FieldSnapshot& snap = request.seed[i];
    if (frame.size() != 2 || snap.u1.shape() != frame ||
        snap.u2.shape() != frame) {
      return "seed snapshot " + std::to_string(i) + " has u1 " +
             shape_to_string(snap.u1.shape()) + " and u2 " +
             shape_to_string(snap.u2.shape()) +
             "; every seed field must be rank 2 and shaped like the newest "
             "u1 " +
             shape_to_string(frame);
    }
  }
  std::string misfit = frame_mismatch(primary, frame);
  // A fallback runs only once a guard trips (or on a scheduled window,
  // which RolloutStream checks), so an unguarded request may use any grid.
  if (misfit.empty() && request.guard.enabled && fallback != nullptr) {
    misfit = frame_mismatch(*fallback, frame);
  }
  if (!misfit.empty()) return misfit;
  const index_t need = primary.min_history();
  if (static_cast<index_t>(request.seed.size()) < need) {
    return "seed holds " + std::to_string(request.seed.size()) +
           " snapshots but " + primary.name() + " needs " +
           std::to_string(need);
  }
  if (need > kMaxHistory) {
    return primary.name() + " needs " + std::to_string(need) +
           " history snapshots, more than the rollout keeps (" +
           std::to_string(kMaxHistory) + ")";
  }
  if (request.guard.enabled && fallback == nullptr) {
    return "guarded request without a fallback propagator";
  }
  return fallback != nullptr ? spacing_mismatch(primary, *fallback)
                             : std::string();
}

RolloutStream::Side RolloutStream::make_side(Propagator* propagator) {
  Side side;
  side.propagator = propagator;
  side.name = propagator->name();
  side.window = &obs::timer("hybrid/" + side.name + "_window");
  side.snapshots = &obs::counter("hybrid/" + side.name + "_snapshots");
  return side;
}

RolloutStream::RolloutStream(RolloutRequest request, Propagator* primary,
                             Propagator* fallback, index_t scheduled_window)
    : request_(std::move(request)),
      scheduled_window_(scheduled_window),
      guard_(request_.guard) {
  TURB_CHECK(primary != nullptr);
  const std::string invalid = validate_request(request_, *primary, fallback);
  TURB_CHECK_MSG(invalid.empty(), invalid);
  TURB_CHECK_MSG(request_.ensemble_k == 1,
                 "a RolloutStream executes one member; K-member ensembles "
                 "are fanned out by serve::RolloutServer");
  TURB_CHECK_MSG(scheduled_window_ >= 0 &&
                     (scheduled_window_ == 0 || fallback != nullptr),
                 "a scheduled window needs a fallback propagator");
  if (scheduled_window_ > 0) {
    const std::string misfit =
        frame_mismatch(*fallback, request_.seed.back().u1.shape());
    TURB_CHECK_MSG(misfit.empty(), misfit);
  }
  primary_ = make_side(primary);
  if (fallback != nullptr) {
    fallback_ = make_side(fallback);
    fallback_label_ = fallback_.name + "_fallback";
  }
  history_ = request_.seed;
  result_.trajectory.reserve(static_cast<std::size_t>(request_.steps));
}

index_t RolloutStream::next_window() const {
  index_t w = request_.window;
  if (scheduled_due_) {
    w = scheduled_window_;
  } else if (degraded()) {
    w = std::max(request_.window, scheduled_window_);
    if (cooldown_left_ > 0) w = std::min(w, cooldown_left_);
  }
  return std::max<index_t>(std::min(w, request_.steps - produced_), 0);
}

std::vector<FieldSnapshot> RolloutStream::advance(const Side& side,
                                                  index_t count) {
  obs::ScopedTimer span(*side.window);
  side.snapshots->add(count);
  return side.propagator->advance(history_, count);
}

void RolloutStream::append_window(std::vector<FieldSnapshot>&& snaps,
                                  std::vector<SnapshotMetrics>&& metrics,
                                  const std::string& producer) {
  const auto count = static_cast<index_t>(snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    result_.metrics.push_back(metrics[i]);
    result_.producer.push_back(producer);
    history_.push_back(snaps[i]);
    result_.trajectory.push_back(std::move(snaps[i]));
    while (static_cast<index_t>(history_.size()) > kMaxHistory) {
      history_.pop_front();
    }
  }
  produced_ += count;
}

void RolloutStream::accept_primary_window(
    std::vector<FieldSnapshot>&& snaps) {
  std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);
  accept_primary_window(std::move(snaps), std::move(metrics));
}

void RolloutStream::accept_primary_window(
    std::vector<FieldSnapshot>&& snaps,
    std::vector<SnapshotMetrics>&& metrics) {
  TURB_CHECK_MSG(!fallback_due(),
                 "primary window fed to a stream whose fallback is due");
  TURB_CHECK_MSG(static_cast<index_t>(snaps.size()) == next_window(),
                 "window holds " << snaps.size() << " snapshots, expected "
                                 << next_window());
  TURB_CHECK_MSG(metrics.size() == snaps.size(),
                 "window holds " << snaps.size() << " snapshots but "
                                 << metrics.size() << " metric rows");

  if (request_.guard.enabled) {
    GuardTrip trip = GuardTrip::none;
    double value = 0.0;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      trip = guard_.check(snaps[i], metrics[i], &value);
      if (trip != GuardTrip::none) {
        bad = i;
        break;
      }
    }
    if (trip != GuardTrip::none) {
      // Discard the whole window (the model was already leaving the
      // attractor before the offending snapshot) and hand the stream to the
      // fallback.
      static obs::Counter& trips = obs::counter("robust/guard_trips");
      trips.add();
      result_.guard_events.push_back(
          {static_cast<index_t>(result_.trajectory.size()), snaps[bad].t,
           trip, value});
      force_degrade(request_.guard.cooldown_snapshots);
      return;
    }
  }
  append_window(std::move(snaps), std::move(metrics), primary_.name);
  scheduled_due_ = scheduled_window_ > 0;
}

void RolloutStream::advance_fallback_window() {
  TURB_CHECK_MSG(fallback_due(), "no fallback window is due");
  const index_t count = next_window();
  std::vector<FieldSnapshot> snaps = advance(fallback_, count);
  std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);
  if (scheduled_due_) {
    append_window(std::move(snaps), std::move(metrics), fallback_.name);
    scheduled_due_ = false;
    return;
  }
  append_window(std::move(snaps), std::move(metrics), fallback_label_);
  static obs::Counter& windows = obs::counter("robust/fallback_windows");
  static obs::Counter& snapshots = obs::counter("robust/fallback_snapshots");
  windows.add();
  snapshots.add(count);
  if (cooldown_left_ > 0) cooldown_left_ -= count;
}

void RolloutStream::force_degrade(index_t cooldown_snapshots) {
  TURB_CHECK_MSG(fallback_.propagator != nullptr,
                 "force_degrade needs a fallback propagator");
  // One rule for every driver: the cool-down, else one scheduled window,
  // else the rest of the request.
  const index_t cooldown =
      cooldown_snapshots > 0 ? cooldown_snapshots : scheduled_window_;
  if (cooldown > 0) {
    cooldown_left_ = cooldown;
  } else {
    degraded_for_good_ = true;
  }
}

void RolloutStream::step() {
  TURB_CHECK(!done());
  if (fallback_due()) {
    advance_fallback_window();
  } else {
    accept_primary_window(advance(primary_, next_window()));
  }
}

RolloutResult RolloutStream::take_result() {
  TURB_CHECK_MSG(done(), "take_result on an unfinished stream");
  return std::move(result_);
}

RolloutResult run_rollout(Propagator& primary, const RolloutRequest& request,
                          Propagator* fallback) {
  RolloutStream stream(request, &primary, fallback);
  while (!stream.done()) stream.step();
  return stream.take_result();
}

}  // namespace turb::core
