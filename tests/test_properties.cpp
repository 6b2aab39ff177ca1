// Parameterised property sweeps across module boundaries: invariants that
// must hold for whole families of shapes and configurations, not just the
// single instances the unit tests pin down.
#include <gtest/gtest.h>

#include <cmath>

#include "core/turbfno.hpp"
#include "fft/fftnd.hpp"
#include "nn/physics_loss.hpp"
#include "nn/sobolev_loss.hpp"
#include "util/rng.hpp"

namespace turb {
namespace {

// --- FFT: round trip over a grid of (batch, channels, H, W) shapes ----------

class FftShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(FftShapeSweep, Rfft2RoundTripIsExact) {
  const auto [n, c, h, w] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + c * 100 + h + w));
  TensorD x({n, c, h, w});
  x.fill_normal(rng, 0.0, 1.0);
  const auto spec = fft::rfftn(x, 2);
  const TensorD back = fft::irfftn(spec, 2, w);
  for (index_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], x[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FftShapeSweep,
    ::testing::Values(std::tuple{1, 1, 4, 4}, std::tuple{2, 3, 8, 16},
                      std::tuple{1, 2, 16, 8}, std::tuple{3, 1, 32, 32},
                      std::tuple{1, 4, 6, 10}, std::tuple{2, 2, 12, 20}));

// --- FNO: every (in, out, width, modes) family keeps shape and trains -------

struct FnoFamily {
  index_t in_ch, out_ch, width, modes, layers;
};

class FnoFamilySweep : public ::testing::TestWithParam<FnoFamily> {};

TEST_P(FnoFamilySweep, ShapeAndGradientSanity) {
  const FnoFamily fam = GetParam();
  Rng rng(99);
  fno::FnoConfig cfg;
  cfg.in_channels = fam.in_ch;
  cfg.out_channels = fam.out_ch;
  cfg.width = fam.width;
  cfg.n_layers = fam.layers;
  cfg.n_modes = {fam.modes, fam.modes};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  fno::Fno model(cfg, rng);

  TensorF x({2, fam.in_ch, 16, 16});
  x.fill_normal(rng, 0.0, 1.0);
  const TensorF y = model.forward(x);
  ASSERT_EQ(y.shape(), (Shape{2, fam.out_ch, 16, 16}));
  ASSERT_TRUE(std::isfinite(static_cast<double>(y.max_abs())));

  // One backward pass produces finite, not-identically-zero gradients in
  // every parameter tensor.
  model.zero_grad();
  TensorF g(y.shape());
  g.fill_normal(rng, 0.0, 1.0);
  const TensorF gx = model.backward(g);
  ASSERT_EQ(gx.shape(), x.shape());
  for (nn::Parameter* p : model.parameters()) {
    ASSERT_TRUE(std::isfinite(p->grad.max_abs())) << p->name;
    ASSERT_GT(p->grad.max_abs(), 0.0) << p->name << " got no gradient";
  }
  // Closed-form parameter count agrees for every family member.
  ASSERT_EQ(model.parameter_count(), fno_parameter_count(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Families, FnoFamilySweep,
    ::testing::Values(FnoFamily{1, 1, 4, 4, 1}, FnoFamily{10, 5, 6, 8, 2},
                      FnoFamily{10, 10, 4, 4, 4}, FnoFamily{10, 1, 8, 8, 2},
                      FnoFamily{3, 7, 4, 12, 2}, FnoFamily{2, 2, 10, 6, 3}));

// --- rollout: total steps invariant for every (cin, cout, steps) ------------

class RolloutSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RolloutSweep, ProducesExactlyRequestedSteps) {
  const auto [cin, cout, steps] = GetParam();
  Rng rng(7);
  fno::FnoConfig cfg;
  cfg.in_channels = cin;
  cfg.out_channels = cout;
  cfg.width = 4;
  cfg.n_layers = 1;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 4;
  cfg.projection_channels = 4;
  fno::Fno model(cfg, rng);
  TensorF seed({1, cin, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(seed, steps, traj);
  EXPECT_EQ(traj.shape(), (Shape{1, steps, 8, 8}));
  EXPECT_TRUE(std::isfinite(static_cast<double>(traj.max_abs())));
}

INSTANTIATE_TEST_SUITE_P(Combos, RolloutSweep,
                         ::testing::Values(std::tuple{4, 1, 7},
                                           std::tuple{4, 2, 7},
                                           std::tuple{4, 4, 7},
                                           std::tuple{2, 5, 9},
                                           std::tuple{6, 3, 4},
                                           std::tuple{1, 1, 3}));

// --- LBM: conservation for every collision operator -------------------------

class CollisionSweep : public ::testing::TestWithParam<lbm::Collision> {};

TEST_P(CollisionSweep, MassAndMomentumConserved) {
  lbm::LbmConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.viscosity = 0.01;
  cfg.collision = GetParam();
  lbm::LbmSolver solver(cfg);
  Rng rng(17);
  const auto field = lbm::random_vortex_velocity(24, 24, 3.0, 0.03, rng);
  solver.initialize(field.u1, field.u2);
  const double m0 = solver.total_mass();
  // Total momentum of a periodic force-free lattice is conserved exactly.
  const auto momentum = [&] {
    const TensorD rho = solver.density();
    const TensorD u1 = solver.velocity_x();
    double px = 0.0;
    for (index_t c = 0; c < rho.size(); ++c) px += rho[c] * u1[c];
    return px;
  };
  const double px0 = momentum();
  solver.step(150);
  EXPECT_NEAR(solver.total_mass(), m0, 1e-9 * m0);
  EXPECT_NEAR(momentum(), px0, 1e-9 * (std::abs(px0) + 1.0));
  EXPECT_FALSE(solver.has_blown_up());
}

INSTANTIATE_TEST_SUITE_P(Operators, CollisionSweep,
                         ::testing::Values(lbm::Collision::kBgk,
                                           lbm::Collision::kEntropic,
                                           lbm::Collision::kMrt));

// --- losses: gradients descend for every loss family ------------------------

enum class LossKind { kMse, kRelL2, kSobolev, kPhysics };

class LossSweep : public ::testing::TestWithParam<LossKind> {};

TEST_P(LossSweep, GradientStepReducesLoss) {
  Rng rng(23);
  TensorF pred({2, 2, 8, 8}), target({2, 2, 8, 8});
  pred.fill_normal(rng, 0.0, 1.0);
  target.fill_normal(rng, 0.0, 1.0);
  const auto eval = [&](const TensorF& p) -> nn::LossResult {
    switch (GetParam()) {
      case LossKind::kMse:
        return nn::mse_loss(p, target);
      case LossKind::kRelL2:
        return nn::relative_l2_loss(p, target);
      case LossKind::kSobolev:
        return nn::sobolev_loss(p, target, 0.5);
      case LossKind::kPhysics:
        break;
    }
    return nn::physics_informed_loss(p, target, 1, 0.5);
  };
  const nn::LossResult res = eval(pred);
  ASSERT_GT(res.value, 0.0);
  // A small step along −grad must reduce the loss (first-order descent).
  TensorF stepped = pred;
  const double gnorm2 = res.grad.squared_norm();
  ASSERT_GT(gnorm2, 0.0);
  const float lr = static_cast<float>(0.01 * res.value / gnorm2);
  stepped.add_scaled(res.grad, -lr);
  EXPECT_LT(eval(stepped).value, res.value);
}

INSTANTIATE_TEST_SUITE_P(Kinds, LossSweep,
                         ::testing::Values(LossKind::kMse, LossKind::kRelL2,
                                           LossKind::kSobolev,
                                           LossKind::kPhysics));

// --- hybrid: snapshot count invariant across window configurations ----------

class WindowSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WindowSweep, HybridProducesExactCount) {
  const auto [fno_w, pde_w, total] = GetParam();
  Rng rng(31);
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.n_layers = 1;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 4;
  cfg.projection_channels = 4;
  fno::Fno model(cfg, rng);
  core::FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), 0.01);

  ns::NsConfig ncfg;
  ncfg.n = 16;
  ncfg.viscosity = 1e-3;
  ncfg.dt = 1e-3;
  core::PdePropagator pde_prop(std::make_unique<ns::SpectralNsSolver>(ncfg),
                               0.01);

  core::History seed;
  for (int s = 0; s < 3; ++s) {
    core::FieldSnapshot snap;
    snap.t = 0.01 * s;
    const auto field = lbm::random_vortex_velocity(16, 16, 3.0, 1.0, rng);
    snap.u1 = field.u1;
    snap.u2 = field.u2;
    seed.push_back(std::move(snap));
  }
  core::HybridConfig hcfg;
  hcfg.fno_snapshots = fno_w;
  hcfg.pde_snapshots = pde_w;
  core::HybridScheduler scheduler(fno_prop, pde_prop, hcfg);
  const auto result = scheduler.run(seed, total);
  EXPECT_EQ(static_cast<int>(result.trajectory.size()), total);
  EXPECT_EQ(result.metrics.size(), result.trajectory.size());
  EXPECT_EQ(result.producer.size(), result.trajectory.size());
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(std::tuple{1, 1, 5},
                                           std::tuple{2, 3, 11},
                                           std::tuple{5, 1, 8},
                                           std::tuple{3, 0, 6},
                                           std::tuple{0, 4, 9}));

}  // namespace
}  // namespace turb
