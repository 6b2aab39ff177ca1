// Cross-module integration tests: the pipelines the examples and benches
// rely on, exercised end-to-end at miniature scale.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/turbfno.hpp"
#include "util/rng.hpp"

namespace turb {
namespace {

TEST(Integration, DatasetVorticityIsCurlOfStoredVelocity) {
  data::GeneratorConfig gen;
  gen.grid = 16;
  gen.reynolds = 200.0;
  gen.burn_in_tc = 0.05;
  gen.t_end_tc = 0.1;
  gen.dt_tc = 0.05;
  const data::SnapshotSeries series = data::generate_sample(gen, 0);
  const index_t frame = 16 * 16;
  for (index_t s = 0; s < series.steps(); ++s) {
    TensorD u1({16, 16}), u2({16, 16});
    for (index_t i = 0; i < frame; ++i) {
      u1[i] = series.u1[s * frame + i];
      u2[i] = series.u2[s * frame + i];
    }
    const TensorD omega = ns::vorticity_from_velocity(u1, u2);
    for (index_t i = 0; i < frame; ++i) {
      // Stored as float; compare at float precision relative to the scale.
      ASSERT_NEAR(series.omega[s * frame + i], omega[i],
                  1e-4 * std::max(1.0, omega.max_abs()));
    }
  }
}

TEST(Integration, LbmAndNsAgreeOnViscousDecayRate) {
  // The unit bridge: an LBM run at Reynolds Re and an NS run at viscosity
  // 1/Re must dissipate kinetic energy at the same non-dimensional rate.
  const index_t n = 32;
  const double re = 200.0;  // well resolved at 32² so both discretisations
                            // sit in their asymptotic regime
  const double u0 = 0.05;

  lbm::LbmConfig lcfg;
  lcfg.nx = n;
  lcfg.ny = n;
  lcfg.viscosity = u0 * static_cast<double>(n) / re;
  lbm::LbmSolver lbm_solver(lcfg);
  Rng rng(5);
  const auto field = lbm::random_vortex_velocity(n, n, 3.0, u0, rng);
  lbm_solver.initialize(field.u1, field.u2);

  ns::NsConfig ncfg;
  ncfg.n = n;
  ncfg.viscosity = 1.0 / re;
  ncfg.dt = 5e-4;
  ns::SpectralNsSolver ns_solver(ncfg);
  // Non-dimensionalise the LBM IC: velocities scale by 1/u0.
  TensorD u1n = field.u1, u2n = field.u2;
  u1n *= 1.0 / u0;
  u2n *= 1.0 / u0;
  ns_solver.set_velocity(u1n, u2n);

  // Advance both for 0.2 t_c.
  const double horizon_tc = 0.2;
  const auto lbm_steps = static_cast<index_t>(
      horizon_tc * static_cast<double>(n) / u0);
  lbm_solver.step(lbm_steps);
  ns_solver.step(static_cast<index_t>(horizon_tc / ncfg.dt));

  const double lbm_ratio = [&] {
    const TensorD u1 = lbm_solver.velocity_x();
    const TensorD u2 = lbm_solver.velocity_y();
    return analysis::kinetic_energy(u1, u2) /
           analysis::kinetic_energy(field.u1, field.u2);
  }();
  TensorD v1, v2;
  ns_solver.velocity(v1, v2);
  const double ns_ratio = analysis::kinetic_energy(v1, v2) /
                          analysis::kinetic_energy(u1n, u2n);
  EXPECT_NEAR(lbm_ratio, ns_ratio, 0.05)
      << "LBM KE ratio " << lbm_ratio << " vs NS " << ns_ratio;
}

TEST(Integration, LbmAndNsAgreeOnVelocityField) {
  // The same unit bridge, pointwise: the LBM (the paper's data generator)
  // and the spectral solver discretise one flow independently, so after
  // advection has carried the field far from its start they must still
  // agree on it. A viscous-only evolution lands about 0.4 from the LBM
  // field here, so the bound checks the spectral advection term. At 32² the
  // two discretisations differ by about 0.054, hence 64².
  const index_t n = 64;
  const double re = 200.0;
  const double u0 = 0.02;

  lbm::LbmConfig lcfg;
  lcfg.nx = n;
  lcfg.ny = n;
  lcfg.viscosity = u0 * static_cast<double>(n) / re;
  lbm::LbmSolver lbm_solver(lcfg);
  Rng rng(5);
  const auto field = lbm::random_vortex_velocity(n, n, 3.0, u0, rng);
  lbm_solver.initialize(field.u1, field.u2);

  ns::NsConfig ncfg;
  ncfg.n = n;
  ncfg.viscosity = 1.0 / re;
  ncfg.dt = 5e-4;
  ns::SpectralNsSolver ns_solver(ncfg);
  TensorD u1n = field.u1, u2n = field.u2;
  u1n *= 1.0 / u0;
  u2n *= 1.0 / u0;
  ns_solver.set_velocity(u1n, u2n);
  TensorD w1, w2;
  ns_solver.velocity(w1, w2);  // the start, as the solver holds it

  // 0.2 t_c: n/u0 lattice steps per t_c, and 0.2 / dt NS steps.
  lbm_solver.step(640);
  ns_solver.step(400);

  TensorD l1 = lbm_solver.velocity_x(), l2 = lbm_solver.velocity_y();
  l1 *= 1.0 / u0;
  l2 *= 1.0 / u0;
  TensorD v1, v2;
  ns_solver.velocity(v1, v2);
  // ‖a − v‖ / ‖v‖ over both velocity components.
  const auto rel_l2 = [&v1, &v2](const TensorD& a1, const TensorD& a2) {
    double num = 0.0;
    for (index_t i = 0; i < v1.size(); ++i) {
      const double d1 = a1[i] - v1[i];
      const double d2 = a2[i] - v2[i];
      num += d1 * d1 + d2 * d2;
    }
    return std::sqrt(num / (v1.squared_norm() + v2.squared_norm()));
  };
  // Agreement shows something only if the flow moved well past the bound.
  EXPECT_GT(rel_l2(w1, w2), 0.3);
  EXPECT_LT(rel_l2(l1, l2), 0.03);
}

TEST(Integration, FnoLearnsPointwiseScalingAcrossResolutions) {
  // Train y = -0.5 x at 16² and evaluate at 32²: the learned operator is
  // resolution-agnostic (the neural-operator property the paper relies on).
  Rng rng(9);
  fno::FnoConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.width = 4;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  fno::Fno model(cfg, rng);

  TensorF x({16, 1, 16, 16});
  x.fill_normal(rng, 0.0, 1.0);
  TensorF y = x;
  y *= -0.5f;
  nn::DataLoader loader(x, y, 8, true, 3);
  fno::TrainConfig tc;
  tc.epochs = 150;
  tc.lr = 5e-3;
  tc.weight_decay = 0.0;
  const fno::TrainResult res = fno::train_fno(model, loader, tc);
  ASSERT_LT(res.final_train_loss(), 0.08) << "failed to fit the operator";

  // Same operator, finer grid, smooth input (within the trained band).
  const auto fine = lbm::random_vortex_velocity(32, 32, 3.0, 1.0, rng);
  TensorF xf({1, 1, 32, 32});
  for (index_t i = 0; i < 32 * 32; ++i) {
    xf[i] = static_cast<float>(fine.u1[i]);
  }
  const TensorF yf = model.forward(xf);
  TensorF expected = xf;
  expected *= -0.5f;
  EXPECT_LT(nn::relative_l2_error(yf, expected), 0.25);
}

/// Surrogate with controllable error: a true PDE step followed by a
/// multiplicative energy drift — a clean stand-in for an imperfect learned
/// emulator. Isolates the HybridScheduler's value from training quality
/// (the trained-model demonstration lives in bench_fig9_longterm_error).
class DriftingSurrogate final : public core::Propagator {
 public:
  DriftingSurrogate(ns::NsConfig cfg, double dt_snap, double drift)
      : solver_(cfg), pde_(std::make_unique<ns::SpectralNsSolver>(cfg),
                          dt_snap),
        drift_(drift) {}

  std::vector<core::FieldSnapshot> advance(const core::History& history,
                                           index_t count) override {
    auto out = pde_.advance(history, count);
    // Every surrogate *snapshot* loses a fraction of its energy — the
    // per-step systematic bias a data-driven emulator accumulates. Snapshot
    // i of this window compounds i+1 drift applications so the bias grows
    // per snapshot regardless of how the rollout is chunked into advances.
    double factor = 1.0;
    for (auto& snap : out) {
      factor *= 1.0 - drift_;
      snap.u1 *= factor;
      snap.u2 *= factor;
    }
    return out;
  }
  [[nodiscard]] double dt_snap() const override { return pde_.dt_snap(); }
  [[nodiscard]] index_t min_history() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "surrogate"; }

 private:
  ns::SpectralNsSolver solver_;
  core::PdePropagator pde_;
  double drift_;
};

TEST(Integration, HybridBoundsSurrogateErrorAccumulation) {
  // The scheduler mechanism behind the paper's Fig. 9: a drifting surrogate
  // compounds its bias every snapshot; interleaving exact PDE windows halves
  // the number of biased steps, so the hybrid's kinetic-energy error must
  // stay strictly below the pure surrogate's.
  const index_t n = 24;
  const double dt_snap = 0.02;
  ns::NsConfig ncfg;
  ncfg.n = n;
  ncfg.viscosity = 2e-3;
  ncfg.dt = dt_snap / 10.0;

  Rng rng(11);
  const auto field = lbm::random_vortex_velocity(n, n, 3.0, 1.0, rng);
  core::History seed;
  core::FieldSnapshot snap;
  snap.t = 0.0;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  seed.push_back(std::move(snap));

  core::PdePropagator reference(std::make_unique<ns::SpectralNsSolver>(ncfg),
                                dt_snap);
  DriftingSurrogate surrogate(ncfg, dt_snap, /*drift=*/0.02);
  core::PdePropagator pde_window(std::make_unique<ns::SpectralNsSolver>(ncfg),
                                 dt_snap);

  const index_t horizon = 20;
  core::RolloutRequest roll_req;
  roll_req.seed = seed;
  roll_req.steps = horizon;
  const auto ref_run = core::run_rollout(reference, roll_req);
  const auto sur_run = core::run_rollout(surrogate, roll_req);
  core::HybridConfig hcfg;
  hcfg.fno_snapshots = 2;
  hcfg.pde_snapshots = 2;
  core::HybridScheduler scheduler(surrogate, pde_window, hcfg);
  const auto hybrid_run = scheduler.run(seed, horizon);

  double sur_err = 0.0, hybrid_err = 0.0;
  for (std::size_t i = 0; i < ref_run.metrics.size(); ++i) {
    const double ref = ref_run.metrics[i].kinetic_energy;
    sur_err += core::percentage_error(sur_run.metrics[i].kinetic_energy, ref);
    hybrid_err +=
        core::percentage_error(hybrid_run.metrics[i].kinetic_energy, ref);
  }
  EXPECT_LT(hybrid_err, 0.8 * sur_err)
      << "hybrid cumulative KE error " << hybrid_err << " vs pure surrogate "
      << sur_err;
  // Final-state error: the pure surrogate has applied the drift at every
  // snapshot, the hybrid only on its windows.
  EXPECT_LT(core::percentage_error(
                hybrid_run.metrics.back().kinetic_energy,
                ref_run.metrics.back().kinetic_energy),
            core::percentage_error(sur_run.metrics.back().kinetic_energy,
                                   ref_run.metrics.back().kinetic_energy));
}

TEST(Integration, CheckpointRoundTripPreservesPredictions) {
  Rng rng(17);
  fno::FnoConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.n_layers = 2;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  fno::Fno model(cfg, rng);
  TensorF x({1, 2, 8, 8});
  x.fill_normal(rng, 0.0, 1.0);
  const TensorF before = model.forward(x);

  const std::string path = testing::TempDir() + "/fno_ckpt.tnn";
  nn::save_parameters(path, model.parameters());

  fno::Fno other(cfg, rng);  // different random init
  nn::load_parameters(path, other.parameters());
  const TensorF after = other.forward(x);
  for (index_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i], after[i]);
  }
  std::remove(path.c_str());
}

TEST(Integration, EnergySpectrumOfDecayingFlowSteepens) {
  // Physical sanity: viscous decay removes small scales faster, so the
  // high-k tail of E(k) falls relative to the low-k part.
  const index_t n = 48;
  ns::NsConfig cfg;
  cfg.n = n;
  cfg.viscosity = 1e-3;
  cfg.dt = 5e-4;
  ns::SpectralNsSolver solver(cfg);
  Rng rng(23);
  const auto field = lbm::random_vortex_velocity(n, n, 8.0, 1.0, rng);
  solver.set_velocity(field.u1, field.u2);

  const auto tail_fraction = [&] {
    TensorD u1, u2;
    solver.velocity(u1, u2);
    const auto spec = ns::energy_spectrum(u1, u2);
    double low = 0.0, high = 0.0;
    for (std::size_t k = 1; k < spec.size(); ++k) {
      (k <= spec.size() / 2 ? low : high) += spec[k];
    }
    return high / (low + high);
  };
  const double before = tail_fraction();
  solver.step(800);
  const double after = tail_fraction();
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace turb
