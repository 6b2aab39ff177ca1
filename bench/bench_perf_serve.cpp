// Serving-layer benchmark → BENCH_serving.json.
//
// Drives serve::RolloutServer at increasing concurrency (1 / 64 / 512
// sessions), recording throughput, nearest-rank p50/p99 session latency,
// and micro-batch occupancy per level. Variant rows re-run a mid-size level
// under each forced microkernel ISA (--isa / util::ScopedIsa), so the
// dispatch tier shows up in the trajectory record. Ensemble rows serve 16
// logical sessions at K ∈ {1, 2, 4, 8} members each, recording
// member-snapshot throughput and the mean relative spread. Three
// correctness exercises ride along and gate the exit code:
//
//   * bitwise verification — a small session set is served concurrently at
//     thread-pool widths 1 and 4 and compared byte-for-byte against
//     sequential core::run_rollout calls of the same seeds;
//   * ensemble reduction contract — identical members (eps = 0) must reduce
//     to exactly-zero variance, perturbed members to finite positive
//     variance, and serve/ensemble_members must account every fanned-out
//     member stream;
//   * admission saturation — a deliberately tiny queue is overfilled and
//     the reject-with-reason path (serve/admission_rejects) asserted.
//
// Flags (besides the shared --threads / --isa / --metrics-out / --serve-*):
//   --out F        JSON output path (default BENCH_serving.json)
//   --grid N       square grid extent for synthetic seeds (default 32)
//   --steps N      snapshots per session (default 10)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.hpp"
#include "core/fno_propagator.hpp"
#include "core/rollout_api.hpp"
#include "fno/fno.hpp"
#include "json_out.hpp"
#include "lbm/initializer.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace turb;

constexpr double kDtSnap = 0.01;

fno::FnoConfig bench_fno_config() {
  fno::FnoConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  return cfg;
}

/// Synthetic seed: `n` random-vortex snapshots (no PDE spin-up — the server
/// cost under test does not depend on how physical the seed is).
core::History make_seed_history(index_t grid, index_t n, std::uint64_t seed) {
  core::History history;
  for (index_t i = 0; i < n; ++i) {
    Rng rng(seed * 1000 + static_cast<std::uint64_t>(i));
    const auto field = lbm::random_vortex_velocity(grid, grid, 4.0, 1.0, rng);
    core::FieldSnapshot snap;
    snap.t = kDtSnap * static_cast<double>(i);
    snap.u1 = field.u1;
    snap.u2 = field.u2;
    history.push_back(std::move(snap));
  }
  return history;
}

bool bitwise_equal(const core::RolloutResult& a,
                   const core::RolloutResult& b) {
  if (a.trajectory.size() != b.trajectory.size()) return false;
  for (std::size_t k = 0; k < a.trajectory.size(); ++k) {
    const auto& sa = a.trajectory[k];
    const auto& sb = b.trajectory[k];
    if (sa.t != sb.t) return false;
    for (index_t i = 0; i < sa.u1.size(); ++i) {
      if (sa.u1[i] != sb.u1[i] || sa.u2[i] != sb.u2[i]) return false;
    }
  }
  return true;
}

struct LevelStats {
  index_t sessions = 0;
  double wall_seconds = 0.0;
  double snapshots_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double batch_occupancy_mean = 0.0;
  double engine_pool_buckets = 0.0;
};

index_t g_grid = 32;
index_t g_steps = 10;
index_t g_cin = 4;

/// Run one throughput level: submit `sessions` requests, drain, collect
/// stats. Exits the process on a rejected submit (the queue is sized to fit
/// the level).
LevelStats run_level(core::FnoPropagator& fno_prop, index_t sessions) {
  serve::ServeConfig sc = serve::ServeConfig::from_runtime();
  sc.queue_capacity = std::max(sc.queue_capacity, sessions);
  serve::RolloutServer server(fno_prop, nullptr, sc);

  // Seeds are prepared outside the timed region; the measured wall time is
  // submission + scheduling + inference + retirement.
  std::vector<core::RolloutRequest> requests;
  requests.reserve(static_cast<std::size_t>(sessions));
  for (index_t s = 0; s < sessions; ++s) {
    core::RolloutRequest request;
    request.seed = make_seed_history(g_grid, g_cin,
                                     static_cast<std::uint64_t>(s) + 100);
    request.steps = g_steps;
    requests.push_back(std::move(request));
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (auto& request : requests) {
    const serve::Admission admission = server.submit(std::move(request));
    if (!admission.admitted) {
      std::cerr << "level " << sessions
                << " submit rejected: " << admission.reason << "\n";
      std::exit(1);
    }
  }
  server.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::RolloutServer::LatencyStats latency = server.latency_stats();
  LevelStats stats;
  stats.sessions = sessions;
  stats.wall_seconds = wall;
  stats.snapshots_per_s =
      static_cast<double>(sessions * g_steps) / std::max(wall, 1e-12);
  stats.latency_p50_ms = latency.p50_ms;
  stats.latency_p99_ms = latency.p99_ms;
  stats.batch_occupancy_mean = server.mean_batch_occupancy();
  stats.engine_pool_buckets = static_cast<double>(server.engine_pool().size());
  return stats;
}

bench::JsonObject level_row(const LevelStats& s) {
  bench::JsonObject row;
  row.integer("sessions", s.sessions);
  row.number("wall_seconds", s.wall_seconds, "%.4f");
  row.number("snapshots_per_s", s.snapshots_per_s, "%.1f");
  row.number("latency_p50_ms", s.latency_p50_ms);
  row.number("latency_p99_ms", s.latency_p99_ms);
  row.number("batch_occupancy_mean", s.batch_occupancy_mean);
  row.number("engine_pool_buckets", s.engine_pool_buckets, "%.0f");
  return row;
}

struct EnsembleLevel {
  index_t k = 1;
  index_t sessions = 0;
  double wall_seconds = 0.0;
  /// Member-snapshot throughput: sessions · k · steps / wall — the engine
  /// work actually done, comparable across K.
  double member_snapshots_per_s = 0.0;
  double mean_rel_spread = 0.0;  ///< mean per-snapshot √variance / mean-RMS
  std::vector<core::RolloutResult> results;
};

/// One ensemble throughput level: `sessions` logical sessions, each fanned
/// into `k` member streams (k = 1 is the plain-session baseline).
EnsembleLevel run_ensemble_level(core::FnoPropagator& fno_prop,
                                 index_t sessions, index_t k, double eps) {
  serve::ServeConfig sc = serve::ServeConfig::from_runtime();
  sc.queue_capacity = std::max(sc.queue_capacity, sessions);
  serve::RolloutServer server(fno_prop, nullptr, sc);

  std::vector<core::RolloutRequest> requests;
  requests.reserve(static_cast<std::size_t>(sessions));
  for (index_t s = 0; s < sessions; ++s) {
    core::RolloutRequest request;
    request.seed = make_seed_history(g_grid, g_cin,
                                     static_cast<std::uint64_t>(s) + 500);
    request.steps = g_steps;
    request.ensemble_k = k;
    request.ensemble_eps = eps;
    request.ensemble_seed = 0xe5ull + static_cast<std::uint64_t>(s);
    requests.push_back(std::move(request));
  }

  std::vector<serve::SessionId> ids;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& request : requests) {
    const serve::Admission admission = server.submit(std::move(request));
    if (!admission.admitted) {
      std::cerr << "ensemble k=" << k
                << " submit rejected: " << admission.reason << "\n";
      std::exit(1);
    }
    ids.push_back(admission.id);
  }
  server.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EnsembleLevel level;
  level.k = k;
  level.sessions = sessions;
  level.wall_seconds = wall;
  level.member_snapshots_per_s =
      static_cast<double>(sessions * k * g_steps) / std::max(wall, 1e-12);
  double spread_sum = 0.0;
  std::int64_t spread_rows = 0;
  for (const serve::SessionId id : ids) {
    core::RolloutResult result = server.take(id);
    for (const core::EnsembleSnapshotSpread& row : result.spread) {
      spread_sum += row.rel_spread;
      ++spread_rows;
    }
    level.results.push_back(std::move(result));
  }
  if (spread_rows > 0) {
    level.mean_rel_spread = spread_sum / static_cast<double>(spread_rows);
  }
  return level;
}

/// Serve `n` sessions and return their results in submission order.
std::vector<core::RolloutResult> serve_batch(core::FnoPropagator& fno_prop,
                                             index_t n) {
  serve::ServeConfig sc = serve::ServeConfig::from_runtime();
  sc.batch_window = 3;  // force a full chunk plus a tail chunk
  serve::RolloutServer server(fno_prop, nullptr, sc);
  std::vector<serve::SessionId> ids;
  for (index_t s = 0; s < n; ++s) {
    core::RolloutRequest request;
    request.seed = make_seed_history(g_grid, g_cin,
                                     static_cast<std::uint64_t>(s) + 7);
    request.steps = g_steps;
    const serve::Admission admission = server.submit(std::move(request));
    if (!admission.admitted) {
      std::cerr << "verify submit rejected: " << admission.reason << "\n";
      std::exit(1);
    }
    ids.push_back(admission.id);
  }
  server.drain();
  std::vector<core::RolloutResult> out;
  out.reserve(ids.size());
  for (const serve::SessionId id : ids) out.push_back(server.take(id));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);
  const std::string out_path = args.get("out", "BENCH_serving.json");
  g_grid = static_cast<index_t>(args.get_int("grid", 32));
  g_steps = static_cast<index_t>(args.get_int("steps", 10));

  const fno::FnoConfig cfg = bench_fno_config();
  g_cin = cfg.in_channels;
  Rng rng(3);
  fno::Fno model(cfg, rng);
  core::FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0),
                               kDtSnap);

  // --- bitwise verification at pool widths 1 and 4 -----------------------
  const index_t n_verify = 4;
  bool bitwise_ok = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(threads);
    std::vector<core::RolloutResult> sequential;
    for (index_t s = 0; s < n_verify; ++s) {
      core::RolloutRequest request;
      request.seed = make_seed_history(g_grid, g_cin,
                                       static_cast<std::uint64_t>(s) + 7);
      request.steps = g_steps;
      sequential.push_back(core::run_rollout(fno_prop, request));
    }
    const std::vector<core::RolloutResult> concurrent =
        serve_batch(fno_prop, n_verify);
    for (index_t s = 0; s < n_verify; ++s) {
      if (!bitwise_equal(sequential[static_cast<std::size_t>(s)],
                         concurrent[static_cast<std::size_t>(s)])) {
        std::cerr << "BITWISE MISMATCH: session " << s << " at threads "
                  << threads << "\n";
        bitwise_ok = false;
      }
    }
  }
  std::printf("bitwise concurrent == sequential (threads 1,4): %s\n",
              bitwise_ok ? "true" : "FALSE");

  // --- throughput levels (runtime ISA) -----------------------------------
  std::vector<LevelStats> level_stats;
  for (const index_t level : {index_t{1}, index_t{64}, index_t{512}}) {
    const LevelStats stats = run_level(fno_prop, level);
    level_stats.push_back(stats);
    std::printf(
        "sessions %5lld  wall %8.3f s  %10.1f snap/s  p50 %8.2f ms  "
        "p99 %8.2f ms  occupancy %5.2f\n",
        static_cast<long long>(level), stats.wall_seconds,
        stats.snapshots_per_s, stats.latency_p50_ms, stats.latency_p99_ms,
        stats.batch_occupancy_mean);
  }

  // --- variant rows: per-ISA ----------------------------------------------
  // One mid-size level per ISA, forcing the microkernel tier process-wide
  // (scalar everywhere; avx2 only where the host supports it).
  const index_t variant_level = 64;
  struct VariantRow {
    std::string isa;
    LevelStats stats;
  };
  std::vector<VariantRow> variant_rows;
  {
    std::vector<util::Isa> isas = {util::Isa::kScalar};
    if (util::cpu_supports_avx2()) isas.push_back(util::Isa::kAvx2);
    for (const util::Isa isa : isas) {
      util::ScopedIsa forced(isa);
      VariantRow row;
      row.isa = util::isa_name(isa);
      row.stats = run_level(fno_prop, variant_level);
      variant_rows.push_back(std::move(row));
    }
    for (const VariantRow& row : variant_rows) {
      std::printf("variant isa=%-6s  %10.1f snap/s\n", row.isa.c_str(),
                  row.stats.snapshots_per_s);
    }
  }

  // --- ensemble UQ: per-K throughput rows + reduction contract -----------
  // Member-snapshot throughput per ensemble width, then the contract gate:
  // identical members (eps = 0) must reduce to exactly-zero variance,
  // perturbed members to finite positive variance, and the member
  // accounting counter must add up.
  const std::int64_t ensemble_members_before =
      obs::counter("serve/ensemble_members").value();
  std::int64_t ensemble_members_expected = 0;
  std::vector<EnsembleLevel> ensemble_levels;
  for (const index_t k : {index_t{1}, index_t{2}, index_t{4}, index_t{8}}) {
    const index_t sessions = 16;
    EnsembleLevel level = run_ensemble_level(fno_prop, sessions, k, 1e-3);
    if (k > 1) ensemble_members_expected += sessions * k;
    std::printf(
        "ensemble k=%lld  %2lld sessions  wall %7.3f s  %10.1f member-snap/s"
        "  mean rel spread %.3e\n",
        static_cast<long long>(k), static_cast<long long>(sessions),
        level.wall_seconds, level.member_snapshots_per_s,
        level.mean_rel_spread);
    level.results.clear();  // rows only; the contract legs below check bytes
    ensemble_levels.push_back(std::move(level));
  }

  bool ensemble_zero_variance_ok = true;
  bool ensemble_perturbed_ok = true;
  {
    const index_t contract_sessions = 4;
    const EnsembleLevel identical =
        run_ensemble_level(fno_prop, contract_sessions, 4, 0.0);
    ensemble_members_expected += contract_sessions * 4;
    for (const core::RolloutResult& result : identical.results) {
      for (const core::EnsembleSnapshotSpread& row : result.spread) {
        if (row.variance != 0.0 || row.rel_spread != 0.0 ||
            row.energy_spread != 0.0) {
          ensemble_zero_variance_ok = false;
        }
      }
    }
    const EnsembleLevel perturbed =
        run_ensemble_level(fno_prop, contract_sessions, 4, 1e-3);
    ensemble_members_expected += contract_sessions * 4;
    for (const core::RolloutResult& result : perturbed.results) {
      for (const core::EnsembleSnapshotSpread& row : result.spread) {
        if (!std::isfinite(row.variance) || row.variance <= 0.0) {
          ensemble_perturbed_ok = false;
        }
      }
    }
  }
  const std::int64_t ensemble_members_delta =
      obs::counter("serve/ensemble_members").value() -
      ensemble_members_before;
  const bool ensemble_ok = ensemble_zero_variance_ok &&
                           ensemble_perturbed_ok &&
                           ensemble_members_delta == ensemble_members_expected;
  std::printf(
      "ensemble contract: zero-variance %s  perturbed-variance %s  "
      "members counter %lld/%lld: %s\n",
      ensemble_zero_variance_ok ? "ok" : "FAILED",
      ensemble_perturbed_ok ? "ok" : "FAILED",
      static_cast<long long>(ensemble_members_delta),
      static_cast<long long>(ensemble_members_expected),
      ensemble_ok ? "ok" : "FAILED");

  // --- admission saturation ---------------------------------------------
  const std::int64_t rejects_before =
      obs::counter("serve/admission_rejects").value();
  index_t rejected = 0;
  {
    serve::ServeConfig sc;
    sc.queue_capacity = 2;
    serve::RolloutServer server(fno_prop, nullptr, sc);
    for (index_t s = 0; s < 4; ++s) {
      core::RolloutRequest request;
      request.seed = make_seed_history(g_grid, g_cin,
                                       static_cast<std::uint64_t>(s) + 900);
      request.steps = 1;
      if (!server.submit(std::move(request)).admitted) ++rejected;
    }
    server.drain();
  }
  const std::int64_t reject_counter_delta =
      obs::counter("serve/admission_rejects").value() - rejects_before;
  std::printf("saturation: 4 submits into cap-2 queue -> %lld rejected\n",
              static_cast<long long>(rejected));
  if (rejected < 1 || reject_counter_delta != rejected) {
    std::cerr << "admission saturation exercise failed\n";
    return 1;
  }

  const std::int64_t steady_allocs =
      obs::counter("infer/steady_state_allocs").value();
  std::printf("steady-state allocs: %lld\n",
              static_cast<long long>(steady_allocs));

  // --- JSON trajectory record -------------------------------------------
  bench::JsonObject doc;
  doc.integer("grid", g_grid);
  doc.integer("steps", g_steps);
  doc.boolean("bitwise_identical_threads_1_4", bitwise_ok);
  std::vector<bench::JsonObject> level_rows;
  for (const LevelStats& s : level_stats) level_rows.push_back(level_row(s));
  doc.array("levels", std::move(level_rows));
  std::vector<bench::JsonObject> vrows;
  for (const VariantRow& v : variant_rows) {
    bench::JsonObject row;
    row.text("isa", v.isa);
    // Weights are always fp32; the field keeps the row's regression-gate
    // key (scripts/bench_gate.py) stable.
    row.text("precision", "fp32");
    bench::JsonObject stats = level_row(v.stats);
    row.object("stats", std::move(stats));
    vrows.push_back(std::move(row));
  }
  doc.array("variants", std::move(vrows));
  std::vector<bench::JsonObject> erows;
  for (const EnsembleLevel& level : ensemble_levels) {
    bench::JsonObject row;
    row.integer("k", level.k);
    row.integer("sessions", level.sessions);
    row.number("wall_seconds", level.wall_seconds, "%.4f");
    row.number("member_snapshots_per_s", level.member_snapshots_per_s,
               "%.1f");
    row.raw("mean_rel_spread",
            bench::json_number(level.mean_rel_spread, "%.3e"));
    erows.push_back(std::move(row));
  }
  doc.array("ensembles", std::move(erows));
  bench::JsonObject econtract;
  econtract.integer("k", 4);
  econtract.boolean("identical_members_zero_variance",
                    ensemble_zero_variance_ok);
  econtract.boolean("perturbed_variance_finite_positive",
                    ensemble_perturbed_ok);
  econtract.integer("members_counter_delta", ensemble_members_delta);
  econtract.integer("members_counter_expected", ensemble_members_expected);
  econtract.boolean("ok", ensemble_ok);
  doc.object("ensemble_contract", std::move(econtract));
  bench::JsonObject saturation;
  saturation.integer("submitted", 4);
  saturation.integer("queue_capacity", 2);
  saturation.integer("rejected", rejected);
  doc.object("saturation", std::move(saturation));
  bench::JsonObject counters;
  counters.integer("serve/admitted", obs::counter("serve/admitted").value());
  counters.integer("serve/completed",
                   obs::counter("serve/completed").value());
  counters.integer("serve/admission_rejects",
                   obs::counter("serve/admission_rejects").value());
  counters.integer("serve/batches", obs::counter("serve/batches").value());
  counters.integer("serve/batched_streams",
                   obs::counter("serve/batched_streams").value());
  counters.integer("serve/snapshots",
                   obs::counter("serve/snapshots").value());
  counters.integer("serve/ensemble_sessions",
                   obs::counter("serve/ensemble_sessions").value());
  counters.integer("serve/ensemble_members",
                   obs::counter("serve/ensemble_members").value());
  counters.integer("serve/ensemble_rounds",
                   obs::counter("serve/ensemble_rounds").value());
  counters.integer("serve/ensemble_guard_trips",
                   obs::counter("serve/ensemble_guard_trips").value());
  counters.integer("infer/steady_state_allocs", steady_allocs);
  doc.object("counters", std::move(counters));
  bench::JsonObject gauges;
  gauges.number("serve/engine_pool_buckets",
                obs::gauge("serve/engine_pool_buckets").value(), "%.0f");
  gauges.number("serve/latency_p50_ms",
                obs::gauge("serve/latency_p50_ms").value());
  gauges.number("serve/latency_p99_ms",
                obs::gauge("serve/latency_p99_ms").value());
  gauges.raw("serve/ensemble_energy_rel_spread",
             bench::json_number(
                 obs::gauge("serve/ensemble_energy_rel_spread").value(),
                 "%.3e"));
  doc.object("gauges", std::move(gauges));
  if (!bench::write_bench_json(out_path, "bench_perf_serve", std::move(doc))) {
    return 1;
  }
  return (bitwise_ok && ensemble_ok) ? 0 : 1;
}
