// Hybrid FNO–PDE long-time rollout — the paper's headline experiment
// (§VI-C, Figs. 8–9) as a runnable example.
//
// Trains a 10-in/5-out 2D FNO on LBM-generated decaying turbulence, then
// rolls the same initial condition forward three ways:
//   * pure PDE     (reference physics),
//   * pure FNO     (fast but drifts unphysical),
//   * hybrid       (alternating 5 FNO / 5 PDE snapshots).
// Prints kinetic energy, enstrophy, and divergence per snapshot and writes
// final-state vorticity images for all three.
//
// A serving-layer leg rides along at the end: the trained model is exposed
// through serve::RolloutServer (unified RolloutRequest API), a small crowd
// of guarded sessions is micro-batched through the shared engine pool, and
// the admission / occupancy / latency counters are printed — the serving
// quickstart from the README, end to end. The --serve-* runtime flags
// (see util/cli.hpp) size the server.
//
// With --serve-ensemble-k K (K >= 2) an ensemble UQ leg follows: one
// logical session fans into K member streams micro-batched together, the
// guard bands are calibrated from the rolling across-member spread, and the
// mean prediction is reported with its per-snapshot uncertainty band.
//
// Run:  ./hybrid_longrun [--grid 32] [--samples 6] [--epochs 30]
//                        [--horizon 40] [--outdir .] [--serve-sessions 8]
//                        [--serve-ensemble-k 4]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/turbfno.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/image.hpp"
#include "util/table.hpp"

namespace {

using namespace turb;

core::History seed_history_from_series(const data::SnapshotSeries& series,
                                       index_t count, double dt_tc) {
  core::History history;
  const index_t frame = series.height() * series.width();
  for (index_t s = 0; s < count; ++s) {
    core::FieldSnapshot snap;
    snap.t = dt_tc * static_cast<double>(s);
    snap.u1 = TensorD({series.height(), series.width()});
    snap.u2 = TensorD({series.height(), series.width()});
    for (index_t i = 0; i < frame; ++i) {
      snap.u1[i] = series.u1[s * frame + i];
      snap.u2[i] = series.u2[s * frame + i];
    }
    history.push_back(std::move(snap));
  }
  return history;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);
  const index_t grid = args.get_int("grid", 32);
  const index_t n_samples = args.get_int("samples", 6);
  const index_t epochs = args.get_int("epochs", 30);
  const index_t horizon = args.get_int("horizon", 40);
  const std::string outdir = args.get("outdir", ".");

  // --- data + training --------------------------------------------------
  data::GeneratorConfig gen;
  gen.grid = grid;
  gen.reynolds = 1000.0;
  gen.dt_tc = 0.01;
  gen.t_end_tc = 0.6;
  std::printf("generating %lld training trajectories...\n",
              static_cast<long long>(n_samples));
  const data::TurbulenceDataset dataset =
      data::generate_ensemble(gen, n_samples);

  data::WindowSpec spec;
  spec.in_channels = 10;
  spec.out_channels = 5;
  TensorF inputs, targets;
  data::make_velocity_channel_windows(dataset, spec, inputs, targets);
  const analysis::Normalizer norm = analysis::Normalizer::fit(inputs);
  norm.apply(inputs);
  norm.apply(targets);

  fno::FnoConfig cfg;
  cfg.in_channels = 10;
  cfg.out_channels = 5;
  cfg.width = 12;
  cfg.n_layers = 4;
  cfg.n_modes = {12, 12};
  cfg.lifting_channels = 32;
  cfg.projection_channels = 32;
  Rng rng(3);
  fno::Fno model(cfg, rng);
  nn::DataLoader loader(inputs, targets, 8, true, 5);
  fno::TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = 2e-3;
  std::printf("training FNO (%lld windows, %lld epochs)...\n",
              static_cast<long long>(inputs.dim(0)),
              static_cast<long long>(epochs));
  const fno::TrainResult train = fno::train_fno(model, loader, tc);
  std::printf("  final loss %.4f in %.1fs\n", train.final_train_loss(),
              train.total_seconds);

  // --- three rollouts from a held-out initial condition ------------------
  const data::SnapshotSeries fresh = data::generate_sample(gen, 777);
  const core::History seed = seed_history_from_series(fresh, 10, gen.dt_tc);

  const auto make_pde = [&] {
    ns::NsConfig ns_cfg;
    ns_cfg.n = grid;
    ns_cfg.viscosity = 1.0 / gen.reynolds;
    ns_cfg.dt = gen.dt_tc / 10.0;
    return std::make_unique<ns::SpectralNsSolver>(ns_cfg);
  };
  core::FnoPropagator fno_prop(model, norm, gen.dt_tc);
  core::PdePropagator pde_a(make_pde(), gen.dt_tc);
  core::PdePropagator pde_b(make_pde(), gen.dt_tc);
  core::PdePropagator pde_c(make_pde(), gen.dt_tc);

  core::RolloutRequest roll_req;
  roll_req.seed = seed;
  roll_req.steps = horizon;
  const core::RolloutResult pde_run = core::run_rollout(pde_a, roll_req);
  const core::RolloutResult fno_run = core::run_rollout(fno_prop, roll_req);
  core::HybridConfig hybrid_cfg;
  hybrid_cfg.fno_snapshots = 5;
  hybrid_cfg.pde_snapshots = 5;
  core::HybridScheduler scheduler(fno_prop, pde_b, hybrid_cfg);
  const core::RolloutResult hybrid_run = scheduler.run(seed, horizon);

  SeriesTable table("hybrid_longrun");
  table.set_columns({"t_over_tc", "ke_pde", "ke_fno", "ke_hybrid", "ens_pde",
                     "ens_fno", "ens_hybrid", "div_fno", "div_hybrid"});
  for (index_t s = 0; s < horizon; ++s) {
    const auto us = static_cast<std::size_t>(s);
    table.add_row({pde_run.metrics[us].t, pde_run.metrics[us].kinetic_energy,
                   fno_run.metrics[us].kinetic_energy,
                   hybrid_run.metrics[us].kinetic_energy,
                   pde_run.metrics[us].enstrophy,
                   fno_run.metrics[us].enstrophy,
                   hybrid_run.metrics[us].enstrophy,
                   fno_run.metrics[us].divergence_linf,
                   hybrid_run.metrics[us].divergence_linf});
  }
  table.print_csv(std::cout);

  const auto dump = [&](const core::RolloutResult& run, const char* name) {
    const auto& last = run.trajectory.back();
    const TensorD omega = ns::vorticity_from_velocity(last.u1, last.u2);
    write_ppm_diverging(outdir + "/hybrid_" + std::string(name) + ".ppm",
                        omega.span(), static_cast<int>(grid),
                        static_cast<int>(grid));
  };
  dump(pde_run, "pde");
  dump(fno_run, "fno");
  dump(hybrid_run, "hybrid");
  std::printf("final-state vorticity images written to %s\n", outdir.c_str());

  // The FNO legs above ran through the serving engine (FnoPropagator plans
  // once for the seed shape, then every window advances allocation-free).
  std::printf("\nserving engine: arena %.1f MB, %lld steady-state allocs\n",
              static_cast<double>(fno_prop.engine().arena_bytes()) / 1e6,
              static_cast<long long>(
                  obs::counter("infer/steady_state_allocs").value()));

  const auto& pm = pde_run.metrics.back();
  const auto& fm = fno_run.metrics.back();
  const auto& hm = hybrid_run.metrics.back();
  std::printf("\nat t=%.2f t_c:  KE error  FNO %.1f%%  hybrid %.1f%%\n", pm.t,
              core::percentage_error(fm.kinetic_energy, pm.kinetic_energy),
              core::percentage_error(hm.kinetic_energy, pm.kinetic_energy));
  std::printf("               div(u)    FNO %.2e  hybrid %.2e\n",
              fm.divergence_linf, hm.divergence_linf);

  // --- serving leg: the trained model behind the request API -------------
  // Each session is a guarded RolloutRequest from a time-shifted seed; the
  // server micro-batches them through the pooled engines while the guard
  // keeps any diverging stream on PDE physics. --serve-* flags size the
  // server (ServeConfig::from_runtime).
  const index_t n_sessions = args.get_int("serve-sessions", 8);
  serve::RolloutServer server(fno_prop, &pde_c,
                              serve::ServeConfig::from_runtime());
  std::vector<serve::SessionId> session_ids;
  core::History serve_seed = seed;
  for (index_t s = 0; s < n_sessions; ++s) {
    core::RolloutRequest request;
    request.seed = serve_seed;
    request.steps = horizon;
    request.guard.enabled = true;
    request.guard.cooldown_snapshots = 5;
    request.tag = "session-" + std::to_string(s);
    const serve::Admission admission = server.submit(std::move(request));
    if (!admission.admitted) {
      std::printf("serving: session %lld rejected (%s)\n",
                  static_cast<long long>(s), admission.reason.c_str());
      continue;
    }
    session_ids.push_back(admission.id);
    // Shift the next seed one snapshot forward so sessions are distinct.
    serve_seed.pop_front();
    serve_seed.push_back(pde_c.advance(serve_seed, 1).front());
  }
  server.drain();

  index_t degraded_sessions = 0;
  for (const serve::SessionId id : session_ids) {
    const core::RolloutResult run = server.take(id);
    if (run.guard_trips() > 0) ++degraded_sessions;
  }
  const serve::RolloutServer::LatencyStats latency = server.latency_stats();
  std::printf(
      "\nserving: %zu sessions x %lld snapshots  occupancy %.1f  "
      "p50 %.1f ms  p99 %.1f ms\n",
      session_ids.size(), static_cast<long long>(horizon),
      server.mean_batch_occupancy(), latency.p50_ms, latency.p99_ms);
  std::printf(
      "serving: %lld guard-degraded sessions, %lld admission rejects, "
      "%lld engine buckets (%.1f MB arenas)\n",
      static_cast<long long>(degraded_sessions),
      static_cast<long long>(
          obs::counter("serve/admission_rejects").value()),
      static_cast<long long>(server.engine_pool().size()),
      static_cast<double>(server.engine_pool().total_arena_bytes()) / 1e6);

  // --- ensemble UQ leg: K members, spread-calibrated guard bands ----------
  // One logical session fanned into --serve-ensemble-k member streams
  // (K = 1 skips the leg): the members co-batch through the same pool, the
  // guard bands are calibrated from the rolling across-member spread, and
  // the result is the mean prediction with a per-snapshot uncertainty band.
  const index_t ensemble_k = serve_runtime_options().ensemble_k;
  if (ensemble_k > 1) {
    core::RolloutRequest request;
    request.seed = seed;
    request.steps = horizon;
    request.ensemble_k = ensemble_k;
    request.ensemble_eps = 1e-3;
    request.guard.enabled = true;
    request.guard.spread_calibrated = true;
    request.guard.cooldown_snapshots = 5;
    request.tag = "ensemble";
    const serve::Admission admission = server.submit(std::move(request));
    if (!admission.admitted) {
      std::printf("ensemble: rejected (%s)\n", admission.reason.c_str());
      return 1;
    }
    server.drain();
    const core::RolloutResult ensemble = server.take(admission.id);
    double worst_rel_spread = 0.0;
    for (const core::EnsembleSnapshotSpread& row : ensemble.spread) {
      worst_rel_spread = std::max(worst_rel_spread, row.rel_spread);
    }
    const auto& last = ensemble.spread.back();
    std::printf(
        "\nensemble: K=%lld members  %lld snapshots  guard trips %lld\n",
        static_cast<long long>(ensemble.ensemble_members),
        static_cast<long long>(ensemble.trajectory.size()),
        static_cast<long long>(ensemble.guard_trips()));
    std::printf(
        "ensemble: final KE %.4f ± %.2e  enstrophy %.4f ± %.2e  "
        "worst rel spread %.2e\n",
        last.energy_mean, last.energy_spread, last.enstrophy_mean,
        last.enstrophy_spread, worst_rel_spread);
  }
  return 0;
}
