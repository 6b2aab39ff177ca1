#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "util/cli.hpp"

namespace turb::serve {

double nearest_rank_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Clamp before the size_t cast: ceil of a negative p·n would be cast from
  // a negative double to an unsigned rank (undefined behaviour), and p > 1
  // would index past the end were it not re-clamped below.
  p = std::min(std::max(p, 0.0), 1.0);
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

ServeConfig ServeConfig::from_runtime() {
  const ServeRuntimeOptions& opts = serve_runtime_options();
  ServeConfig cfg;
  cfg.max_sessions = opts.max_sessions;
  cfg.queue_capacity = opts.queue_capacity;
  cfg.batch_window = opts.batch_window;
  return cfg;
}

RolloutServer::RolloutServer(core::FnoPropagator& primary,
                             core::Propagator* fallback, ServeConfig config)
    : primary_(&primary),
      fallback_(fallback),
      config_(config),
      pool_(primary.model()) {
  TURB_CHECK(config_.max_sessions >= 1);
  TURB_CHECK(config_.queue_capacity >= 1);
  TURB_CHECK(config_.batch_window >= 1);
  if (fallback_ != nullptr) {
    const std::string spacing = core::spacing_mismatch(primary, *fallback_);
    TURB_CHECK_MSG(spacing.empty(), spacing);
  }
}

Admission RolloutServer::reject_locked(const std::string& reason) {
  static obs::Counter& rejects = obs::counter("serve/admission_rejects");
  rejects.add();
  Admission a;
  a.admitted = false;
  a.reason = reason;
  return a;
}

Admission RolloutServer::admit_locked(core::RolloutRequest&& request,
                                      core::Propagator* primary,
                                      core::Propagator* fallback, bool solo) {
  // Admission control rejects with the reason RolloutStream's constructor
  // would throw: overload and bad requests are expected server inputs, and a
  // rejected stream must not take the process down.
  if (static_cast<index_t>(pending_.size()) >= config_.queue_capacity) {
    return reject_locked("queue saturated: " +
                         std::to_string(pending_.size()) + " pending >= cap " +
                         std::to_string(config_.queue_capacity));
  }
  const std::string invalid =
      core::validate_request(request, *primary, fallback);
  if (!invalid.empty()) return reject_locked(invalid);
  if (request.ensemble_k < 1) {
    return reject_locked("request.ensemble_k must be >= 1");
  }
  if (request.ensemble_k > 1 && solo) {
    return reject_locked(
        "ensemble sessions require the shared server primary "
        "(submit, not submit_with_propagator)");
  }
  if (request.ensemble_eps < 0.0) {
    return reject_locked("request.ensemble_eps must be >= 0");
  }

  Session session;
  session.id = next_id_++;
  session.tag = request.tag;
  session.solo = solo;
  session.state = SessionState::queued;
  session.admitted_at = std::chrono::steady_clock::now();
  if (request.ensemble_k > 1) {
    session.ensemble = std::make_unique<EnsembleSession>(std::move(request),
                                                         primary, fallback);
  } else {
    session.stream = std::make_unique<core::RolloutStream>(std::move(request),
                                                           primary, fallback);
  }
  const SessionId id = session.id;
  pending_.push_back(id);
  sessions_.emplace(id, std::move(session));
  static obs::Counter& admitted = obs::counter("serve/admitted");
  admitted.add();
  update_gauges_locked();
  Admission a;
  a.admitted = true;
  a.id = id;
  return a;
}

Admission RolloutServer::submit(core::RolloutRequest request) {
  std::lock_guard<std::mutex> lock(mu_);
  return admit_locked(std::move(request), primary_, fallback_,
                      /*solo=*/false);
}

Admission RolloutServer::submit_with_propagator(core::RolloutRequest request,
                                                core::Propagator& primary,
                                                core::Propagator* fallback) {
  std::lock_guard<std::mutex> lock(mu_);
  return admit_locked(std::move(request), &primary, fallback, /*solo=*/true);
}

bool RolloutServer::step() {
  TURB_TRACE_SCOPE("serve/round");
  static obs::Counter& batches = obs::counter("serve/batches");
  static obs::Counter& batched_streams = obs::counter("serve/batched_streams");
  static obs::Counter& served_snapshots = obs::counter("serve/snapshots");
  static obs::Gauge& occupancy = obs::gauge("serve/batch_occupancy");
  static obs::Counter& completed = obs::counter("serve/completed");
  static obs::TimerStat& session_latency = obs::timer("serve/session_latency");
  std::lock_guard<std::mutex> lock(mu_);

  while (static_cast<index_t>(active_.size()) < config_.max_sessions &&
         !pending_.empty()) {
    const SessionId id = pending_.front();
    pending_.pop_front();
    sessions_.at(id).state = SessionState::active;
    active_.push_back(id);
  }

  // Partition the active set: ready server-primary streams micro-batch per
  // grid bucket; solo and degraded streams advance one window on their own
  // propagators. An ensemble session contributes each member stream as an
  // ordinary batchable entry (windows staged with the group instead of
  // accepted directly); a degraded group sends every member down the alone
  // path together. Admission order is preserved everywhere, so the schedule
  // — and the engine-pool bucket sequence — is deterministic.
  struct ReadyEntry {
    core::RolloutStream* stream;
    EnsembleSession* group;  ///< null for plain sessions
    index_t member;
  };
  std::map<std::pair<index_t, index_t>, std::vector<ReadyEntry>> ready;
  std::vector<core::RolloutStream*> alone;
  std::vector<EnsembleSession*> staged_groups;
  for (const SessionId id : active_) {
    Session& session = sessions_.at(id);
    if (session.ensemble) {
      EnsembleSession* group = session.ensemble.get();
      if (group->done()) continue;
      if (group->degraded()) {
        for (index_t m = 0; m < group->members(); ++m) {
          alone.push_back(&group->member(m));
        }
        continue;
      }
      staged_groups.push_back(group);
      for (index_t m = 0; m < group->members(); ++m) {
        core::RolloutStream* stream = &group->member(m);
        const TensorD& field = stream->history().back().u1;
        ready[{field.dim(0), field.dim(1)}].push_back({stream, group, m});
      }
      continue;
    }
    core::RolloutStream* stream = session.stream.get();
    if (stream->done()) continue;
    if (session.solo || stream->degraded()) {
      alone.push_back(stream);
      continue;
    }
    const TensorD& field = stream->history().back().u1;
    ready[{field.dim(0), field.dim(1)}].push_back({stream, nullptr, 0});
  }

  const index_t cin = primary_->model().config().in_channels;
  for (auto& [grid, entries] : ready) {
    for (std::size_t base = 0; base < entries.size();
         base += static_cast<std::size_t>(config_.batch_window)) {
      const auto k = static_cast<index_t>(
          std::min(entries.size() - base,
                   static_cast<std::size_t>(config_.batch_window)));
      std::vector<const core::History*> histories(
          static_cast<std::size_t>(k));
      std::vector<index_t> counts(static_cast<std::size_t>(k));
      std::vector<std::vector<core::FieldSnapshot>> windows(
          static_cast<std::size_t>(k));
      std::vector<std::vector<core::FieldSnapshot>*> outs(
          static_cast<std::size_t>(k));
      index_t snapshots = 0;
      for (index_t i = 0; i < k; ++i) {
        core::RolloutStream* stream = entries[base + i].stream;
        histories[i] = &stream->history();
        counts[i] = stream->next_window();
        outs[i] = &windows[i];
        snapshots += counts[i];
      }
      {
        TURB_TRACE_SCOPE("serve/batch");
        infer::InferenceEngine& engine =
            pool_.acquire(2 * k, cin, grid.first, grid.second);
        primary_->advance_batched_into(engine, histories.data(),
                                       counts.data(), k, outs.data());
      }
      batches_ += 1;
      batched_streams_ += k;
      batches.add();
      batched_streams.add(k);
      served_snapshots.add(snapshots);
      occupancy.set(static_cast<double>(k));
      for (index_t i = 0; i < k; ++i) {
        const ReadyEntry& entry = entries[base + i];
        if (entry.group != nullptr) {
          // Ensemble members are judged together once the whole round is in.
          entry.group->stage_window(entry.member, std::move(windows[i]));
        } else {
          entry.stream->accept_primary_window(std::move(windows[i]));
        }
      }
    }
  }

  for (core::RolloutStream* stream : alone) {
    const index_t count = stream->next_window();
    stream->step();
    served_snapshots.add(count);
  }

  // All batches of this round are in: commit each staged ensemble round
  // (spread-calibrated guard check, then accept-all or degrade-all).
  for (EnsembleSession* group : staged_groups) {
    if (group->round_pending()) group->commit_round();
  }

  // Retire finished sessions, keeping the active set in admission order.
  const auto now = std::chrono::steady_clock::now();
  std::vector<SessionId> still_active;
  still_active.reserve(active_.size());
  for (const SessionId id : active_) {
    Session& session = sessions_.at(id);
    if (!session.done()) {
      still_active.push_back(id);
      continue;
    }
    session.state = SessionState::finished;
    session.latency_seconds =
        std::chrono::duration<double>(now - session.admitted_at).count();
    completed_latencies_.insert(
        std::upper_bound(completed_latencies_.begin(),
                         completed_latencies_.end(), session.latency_seconds),
        session.latency_seconds);
    completed.add();
    session_latency.record(session.latency_seconds);
  }
  const bool retired = active_.size() != still_active.size();
  active_ = std::move(still_active);
  update_gauges_locked();
  if (retired) update_latency_gauges_locked();
  return !active_.empty() || !pending_.empty();
}

void RolloutServer::drain() {
  while (step()) {
  }
}

void RolloutServer::update_gauges_locked() {
  static obs::Gauge& queue_depth = obs::gauge("serve/queue_depth");
  static obs::Gauge& active = obs::gauge("serve/active_sessions");
  queue_depth.set(static_cast<double>(pending_.size()));
  active.set(static_cast<double>(active_.size()));
}

void RolloutServer::update_latency_gauges_locked() {
  static obs::Gauge& p50 = obs::gauge("serve/latency_p50_ms");
  static obs::Gauge& p99 = obs::gauge("serve/latency_p99_ms");
  p50.set(nearest_rank_percentile(completed_latencies_, 0.50) * 1e3);
  p99.set(nearest_rank_percentile(completed_latencies_, 0.99) * 1e3);
}

std::vector<SessionId> RolloutServer::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionId> out;
  for (const auto& [id, session] : sessions_) {
    if (session.state == SessionState::finished) out.push_back(id);
  }
  return out;
}

core::RolloutResult RolloutServer::take(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  TURB_CHECK_MSG(it != sessions_.end(), "unknown session id " << id);
  TURB_CHECK_MSG(it->second.state == SessionState::finished,
                 "session " << id << " has not finished");
  core::RolloutResult result = it->second.ensemble
                                   ? it->second.ensemble->take_result()
                                   : it->second.stream->take_result();
  sessions_.erase(it);
  return result;
}

SessionSnapshot RolloutServer::snapshot_locked(const Session& s) const {
  SessionSnapshot snap;
  snap.id = s.id;
  snap.tag = s.tag;
  snap.state = s.state;
  if (s.ensemble) {
    snap.produced = s.ensemble->produced();
    snap.steps = s.ensemble->member(0).request().steps;
    snap.degraded = s.ensemble->degraded();
    snap.guard_trips = s.ensemble->guard_trips();
    snap.ensemble_members = s.ensemble->members();
  } else {
    snap.produced = s.stream->produced();
    snap.steps = s.stream->request().steps;
    snap.degraded = s.stream->degraded();
    snap.guard_trips = s.stream->result().guard_trips();
  }
  snap.latency_seconds = s.latency_seconds;
  return snap;
}

SessionSnapshot RolloutServer::snapshot(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  TURB_CHECK_MSG(it != sessions_.end(), "unknown session id " << id);
  return snapshot_locked(it->second);
}

std::vector<SessionSnapshot> RolloutServer::snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionSnapshot> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    out.push_back(snapshot_locked(session));
  }
  return out;
}

index_t RolloutServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<index_t>(pending_.size());
}

index_t RolloutServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<index_t>(active_.size());
}

RolloutServer::LatencyStats RolloutServer::latency_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyStats stats;
  stats.completed = static_cast<std::int64_t>(completed_latencies_.size());
  if (completed_latencies_.empty()) return stats;
  stats.p50_ms = nearest_rank_percentile(completed_latencies_, 0.50) * 1e3;
  stats.p99_ms = nearest_rank_percentile(completed_latencies_, 0.99) * 1e3;
  stats.max_ms = completed_latencies_.back() * 1e3;
  return stats;
}

double RolloutServer::mean_batch_occupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_ == 0 ? 0.0
                       : static_cast<double>(batched_streams_) /
                             static_cast<double>(batches_);
}

}  // namespace turb::serve
