// Concurrent rollout serving: many RolloutRequest sessions multiplexed over
// shared inference engines.
//
// The server turns the unified request API (core/rollout_api.hpp) into a
// throughput machine:
//
//   * Admission control — submit() bounds the pending queue
//     (ServeConfig::queue_capacity) and rejects with a reason instead of
//     throwing, so overload is a normal, observable outcome
//     (serve/admission_rejects) rather than an exception storm.
//   * Scheduling — each step() round promotes pending sessions into the
//     active set (ServeConfig::max_sessions), then micro-batches every
//     ready FNO stream into chunks of at most ServeConfig::batch_window,
//     marshalled through one pooled engine per (batch, grid) bucket
//     (engine_pool.hpp) via FnoPropagator::advance_batched_into.
//   * Correctness — a session's bytes never depend on its batchmates:
//     engine kernels process batch entries on independent slabs, the
//     scheduler advances streams by the same window chunking run_rollout
//     uses, and RolloutStream re-marshals each window from the session's
//     own denormalised history. N concurrent sessions are therefore
//     bitwise identical to N sequential run_rollout calls (tests enforce
//     this at pool widths 1 and 4).
//   * Degradation — each stream owns its RolloutGuard; a tripped session
//     leaves the micro-batch and finishes on the fallback propagator
//     (PDE physics) alone while its former batchmates keep batching,
//     unperturbed.
//   * Ensemble UQ — a request with ensemble_k = K >= 2 fans into K member
//     streams (ensemble_session.hpp) that ride the same micro-batch path;
//     their windows are staged and judged together per round (optionally
//     against spread-calibrated guard bands) and the finished members reduce
//     to one mean prediction with per-snapshot variance.
//
// step()/drain() run the compute on the caller's thread; submit() and the
// introspection calls are safe from other threads (one mutex guards the
// session tables — the hot loops never touch it mid-kernel).
#pragma once

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/fno_propagator.hpp"
#include "core/rollout_api.hpp"
#include "serve/engine_pool.hpp"
#include "serve/ensemble_session.hpp"

namespace turb::serve {

struct ServeConfig {
  index_t max_sessions = 256;     ///< sessions advanced concurrently
  index_t queue_capacity = 1024;  ///< admitted-but-not-active bound
  index_t batch_window = 16;      ///< max streams per micro-batched forward
  /// Populated from the --serve-max-sessions / --serve-queue-cap /
  /// --serve-batch-window runtime flags (util/cli.hpp).
  static ServeConfig from_runtime();
};

/// Nearest-rank percentile over an ascending-sorted sample. Total over its
/// whole domain: an empty sample yields 0, a single-element sample yields
/// that element for every p, and p is clamped into [0, 1] (p <= 0 → first
/// element, p >= 1 → last) so out-of-range probabilities cannot underflow
/// the rank computation.
[[nodiscard]] double nearest_rank_percentile(const std::vector<double>& sorted,
                                             double p);

using SessionId = std::int64_t;

/// submit() outcome: admitted with a session id, or rejected with a reason.
struct Admission {
  bool admitted = false;
  SessionId id = -1;
  std::string reason;  ///< non-empty iff rejected
};

enum class SessionState { queued, active, finished };

/// Point-in-time view of one session (returned by snapshot()/snapshots()).
struct SessionSnapshot {
  SessionId id = -1;
  std::string tag;
  SessionState state = SessionState::queued;
  index_t produced = 0;          ///< snapshots appended so far
  index_t steps = 0;             ///< requested horizon
  bool degraded = false;         ///< currently on the fallback propagator
  index_t guard_trips = 0;
  index_t ensemble_members = 1;  ///< 1 = plain session, K >= 2 = ensemble
  double latency_seconds = 0.0;  ///< admission → completion (0 until done)
};

class RolloutServer {
 public:
  /// @param primary  FNO propagator whose model backs the engine pool and
  ///                 whose marshalling drives every micro-batch (not owned)
  /// @param fallback guard fallback shared by server-primary sessions (not
  ///                 owned; may be null — then guarded submits are rejected).
  ///                 Its advance() re-seeds from each stream's own history,
  ///                 so one instance serves every degraded stream. Its
  ///                 snapshot spacing must match the primary's (checked).
  RolloutServer(core::FnoPropagator& primary, core::Propagator* fallback,
                ServeConfig config);

  RolloutServer(const RolloutServer&) = delete;
  RolloutServer& operator=(const RolloutServer&) = delete;

  /// Admit a session for the shared FNO primary (micro-batched). Rejects —
  /// never throws — on a saturated queue or an invalid request, bumping
  /// serve/admission_rejects and explaining why in Admission::reason.
  /// A request with ensemble_k = K >= 2 fans out into K member streams
  /// (ensemble_session.hpp) co-batched like K sessions and reduced into one
  /// mean + spread result at take().
  Admission submit(core::RolloutRequest request);

  /// Admit a session driven by its own propagator pair (fault injection,
  /// heterogeneous models). Such sessions run solo — one window per
  /// scheduling round, never co-batched — so a divergent primary can trip
  /// its guard without ever sharing an engine with healthy streams.
  Admission submit_with_propagator(core::RolloutRequest request,
                                   core::Propagator& primary,
                                   core::Propagator* fallback);

  /// One scheduling round: promote pending sessions, advance every active
  /// stream by one window (micro-batched where possible), retire finished
  /// ones. Returns true while admitted work remains.
  bool step();

  /// Run scheduling rounds until every admitted session has finished.
  void drain();

  /// Ids of finished sessions whose results have not been taken yet.
  [[nodiscard]] std::vector<SessionId> finished() const;

  /// Move out a finished session's result and release the session.
  core::RolloutResult take(SessionId id);

  [[nodiscard]] SessionSnapshot snapshot(SessionId id) const;
  [[nodiscard]] std::vector<SessionSnapshot> snapshots() const;

  [[nodiscard]] index_t queue_depth() const;      ///< pending sessions
  [[nodiscard]] index_t active_sessions() const;  ///< currently scheduled

  /// Completed-session latency percentiles (nearest-rank, milliseconds).
  struct LatencyStats {
    std::int64_t completed = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };
  [[nodiscard]] LatencyStats latency_stats() const;

  /// Mean streams per micro-batched forward chunk since construction.
  [[nodiscard]] double mean_batch_occupancy() const;

  [[nodiscard]] EnginePool& engine_pool() { return pool_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  struct Session {
    SessionId id = -1;
    std::string tag;
    std::unique_ptr<core::RolloutStream> stream;  ///< plain (null if ensemble)
    std::unique_ptr<EnsembleSession> ensemble;    ///< K >= 2 fan-out
    bool solo = false;  ///< own propagator — never co-batched
    SessionState state = SessionState::queued;
    std::chrono::steady_clock::time_point admitted_at;
    double latency_seconds = 0.0;

    [[nodiscard]] bool done() const {
      return ensemble ? ensemble->done() : stream->done();
    }
  };

  Admission admit_locked(core::RolloutRequest&& request,
                         core::Propagator* primary,
                         core::Propagator* fallback, bool solo);
  Admission reject_locked(const std::string& reason);
  /// Queue-depth and active-session gauges (every admission and round).
  void update_gauges_locked();
  /// p50/p99 latency gauges, refreshed only when a session retires.
  void update_latency_gauges_locked();
  [[nodiscard]] SessionSnapshot snapshot_locked(const Session& s) const;

  core::FnoPropagator* primary_;
  core::Propagator* fallback_;
  ServeConfig config_;
  EnginePool pool_;

  mutable std::mutex mu_;
  std::map<SessionId, Session> sessions_;
  std::deque<SessionId> pending_;  ///< admission order
  std::vector<SessionId> active_;  ///< admission order
  SessionId next_id_ = 0;
  std::vector<double> completed_latencies_;  ///< seconds, kept ascending
  std::int64_t batches_ = 0;
  std::int64_t batched_streams_ = 0;
};

}  // namespace turb::serve
