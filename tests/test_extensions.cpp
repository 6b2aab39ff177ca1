// Tests for the paper's outlook extensions: physics-informed loss
// (incompressibility in the training objective), Kolmogorov forcing
// (forced turbulence), and the MRT collision operator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "data/windows.hpp"
#include "lbm/initializer.hpp"
#include "lbm/solver.hpp"
#include "nn/physics_loss.hpp"
#include "nn/sobolev_loss.hpp"
#include "ns/solver.hpp"
#include "ns/spectral_ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

double analysis_kinetic(const TensorD& u1, const TensorD& u2) {
  return 0.5 * (u1.squared_norm() + u2.squared_norm()) /
         static_cast<double>(u1.size());
}

// --- physics-informed loss ---------------------------------------------------

TensorF pair_tensor_from(const TensorD& u1, const TensorD& u2) {
  const index_t h = u1.dim(0), w = u1.dim(1);
  TensorF t({1, 2, h, w});
  for (index_t i = 0; i < h * w; ++i) {
    t[i] = static_cast<float>(u1[i]);
    t[h * w + i] = static_cast<float>(u2[i]);
  }
  return t;
}

TEST(PhysicsLoss, ZeroForSolenoidalField) {
  Rng rng(1);
  const auto field = lbm::random_vortex_velocity(16, 16, 3.0, 1.0, rng);
  const TensorF pair = pair_tensor_from(field.u1, field.u2);
  const nn::LossResult res = nn::divergence_penalty(pair, 1);
  EXPECT_LT(res.value, 1e-10);
  EXPECT_LT(res.grad.max_abs(), 1e-4);
}

TEST(PhysicsLoss, PositiveForDivergentField) {
  const index_t n = 16;
  TensorD u1({n, n}), u2({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      u1(iy, ix) = std::sin(2.0 * std::numbers::pi * ix / n);
      u2(iy, ix) = std::sin(2.0 * std::numbers::pi * iy / n);
    }
  }
  const TensorF pair = pair_tensor_from(u1, u2);
  // d = 2π(cos x + cos y); mean d² = (2π)²·(½+½) = 4π².
  const nn::LossResult res = nn::divergence_penalty(pair, 1);
  EXPECT_NEAR(res.value, 4.0 * std::numbers::pi * std::numbers::pi,
              1e-2 * res.value);
}

TEST(PhysicsLoss, GradientMatchesFiniteDifference) {
  Rng rng(3);
  TensorF pair({2, 4, 8, 8});  // N=2, K=2 pairs
  pair.fill_normal(rng, 0.0, 1.0);
  const nn::LossResult res = nn::divergence_penalty(pair, 2);
  const float eps = 1e-3f;
  for (index_t i = 0; i < pair.size(); i += 37) {
    TensorF p = pair;
    p[i] += eps;
    const double lp = nn::divergence_penalty(p, 2).value;
    p[i] -= 2 * eps;
    const double lm = nn::divergence_penalty(p, 2).value;
    const double numeric = (lp - lm) / (2.0 * eps);
    ASSERT_NEAR(res.grad[i], numeric,
                2e-2 * std::max(1.0, std::abs(numeric)))
        << "coordinate " << i;
  }
}

TEST(PhysicsLoss, MetricMatchesPenaltyValue) {
  Rng rng(5);
  TensorF pair({1, 2, 16, 16});
  pair.fill_normal(rng, 0.0, 1.0);
  EXPECT_NEAR(nn::mean_squared_divergence(pair, 1),
              nn::divergence_penalty(pair, 1).value, 1e-8);
}

TEST(PhysicsLoss, CombinedLossAddsWeightedPenalty) {
  Rng rng(7);
  TensorF pred({1, 2, 8, 8}), target({1, 2, 8, 8});
  pred.fill_normal(rng, 0.0, 1.0);
  target.fill_normal(rng, 0.0, 1.0);
  const double data = nn::relative_l2_loss(pred, target).value;
  const double div = nn::divergence_penalty(pred, 1).value;
  const nn::LossResult combined =
      nn::physics_informed_loss(pred, target, 1, 0.25);
  EXPECT_NEAR(combined.value, data + 0.25 * div, 1e-8);
}

TEST(PhysicsLoss, ZeroWeightReducesToDataTerm) {
  Rng rng(9);
  TensorF pred({1, 2, 8, 8}), target({1, 2, 8, 8});
  pred.fill_normal(rng, 0.0, 1.0);
  target.fill_normal(rng, 0.0, 1.0);
  const nn::LossResult a = nn::physics_informed_loss(pred, target, 1, 0.0);
  const nn::LossResult b = nn::relative_l2_loss(pred, target);
  EXPECT_EQ(a.value, b.value);
}

TEST(PhysicsLoss, RejectsBadChannelCount) {
  TensorF pred({1, 3, 8, 8});
  EXPECT_THROW(nn::divergence_penalty(pred, 2), CheckError);
}

TEST(PhysicsLoss, DivergencePenaltyValueSameBitsAtEveryWidth) {
  // The (sample, step) tasks finish in any order at width 4; their values
  // are summed in index order, so the value keeps the width-1 bits. A
  // completion-order sum differed from the width-1 value in ~6 % of calls
  // on a 4-vCPU host, so 200 calls all but always catch one.
  Rng rng(11);
  TensorF pred({8, 4, 32, 32});  // N = 8, K = 2 velocity pairs
  pred.fill_normal(rng, 0.0, 1.0);
  double want = 0.0;
  {
    ThreadPool::Scope scope(1);
    want = nn::divergence_penalty(pred, 2).value;
  }
  ThreadPool::Scope scope(4);
  for (int call = 0; call < 200; ++call) {
    const double got = nn::divergence_penalty(pred, 2).value;
    ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
        << "width-4 call " << call << ": " << got << " vs width 1 " << want;
  }
}

// --- velocity-pair windows ------------------------------------------------------

TEST(PairWindows, LayoutHoldsComponentsAtSameInstants) {
  data::TurbulenceDataset ds;
  ds.dt_tc = 0.1;
  const index_t steps = 8, h = 4, w = 4;
  data::SnapshotSeries series;
  series.u1 = TensorF({steps, h, w});
  series.u2 = TensorF({steps, h, w});
  series.omega = TensorF({steps, h, w});
  for (index_t t = 0; t < steps; ++t) {
    series.times.push_back(0.1 * static_cast<double>(t));
    for (index_t i = 0; i < h * w; ++i) {
      series.u1[t * h * w + i] = static_cast<float>(t);
      series.u2[t * h * w + i] = static_cast<float>(t) + 100.0f;
    }
  }
  ds.samples.push_back(std::move(series));

  data::WindowSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 2;
  TensorF x, y;
  data::make_velocity_pair_windows(ds, spec, x, y);
  EXPECT_EQ(x.shape(), (Shape{4, 6, 4, 4}));
  EXPECT_EQ(y.shape(), (Shape{4, 4, 4, 4}));
  // Window 0: u1 channels hold t = 0,1,2; u2 channels hold t+100.
  EXPECT_EQ(x(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(x(0, 2, 0, 0), 2.0f);
  EXPECT_EQ(x(0, 3, 0, 0), 100.0f);
  EXPECT_EQ(x(0, 5, 0, 0), 102.0f);
  // Targets continue chronologically: t = 3,4 and 103,104.
  EXPECT_EQ(y(0, 0, 0, 0), 3.0f);
  EXPECT_EQ(y(0, 2, 0, 0), 103.0f);
}

// --- Kolmogorov forcing -----------------------------------------------------------

TEST(Forcing, ForcedFlowSustainsEnergyDecayingDoesNot) {
  ns::NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 2e-3;
  cfg.dt = 2e-4;
  cfg.forcing_amplitude = 1.0;
  cfg.forcing_k = 2;
  ns::SpectralNsSolver forced(cfg);
  ns::NsConfig decay_cfg = cfg;
  decay_cfg.forcing_amplitude = 0.0;
  ns::SpectralNsSolver decaying(decay_cfg);

  Rng rng(11);
  const auto field = lbm::random_vortex_velocity(32, 32, 3.0, 0.5, rng);
  forced.set_velocity(field.u1, field.u2);
  decaying.set_velocity(field.u1, field.u2);
  const double ke0 = [&] {
    TensorD u1, u2;
    forced.velocity(u1, u2);
    return analysis_kinetic(u1, u2);
  }();

  forced.step(3000);
  decaying.step(3000);
  TensorD u1, u2;
  forced.velocity(u1, u2);
  const double ke_forced = analysis_kinetic(u1, u2);
  decaying.velocity(u1, u2);
  const double ke_decay = analysis_kinetic(u1, u2);

  EXPECT_GT(ke_forced, 0.5 * ke0);  // forcing sustains the flow
  EXPECT_LT(ke_decay, ke_forced);   // unforced flow dissipates below it
  EXPECT_TRUE(std::isfinite(ke_forced));
}

TEST(Forcing, LaminarKolmogorovBalance) {
  // With no initial flow, the forced solution tends to the laminar profile
  // u₁ = A/(ν k²) sin(k y): a steady balance of forcing and viscosity.
  ns::NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 0.05;  // very viscous: laminar attractor
  cfg.dt = 1e-4;
  cfg.forcing_amplitude = 0.5;
  cfg.forcing_k = 1;
  ns::SpectralNsSolver solver(cfg);
  solver.set_vorticity(TensorD({32, 32}));
  solver.step(20000);

  TensorD u1, u2;
  solver.velocity(u1, u2);
  const double kf = 2.0 * std::numbers::pi;
  const double expected_peak = cfg.forcing_amplitude / (cfg.viscosity * kf * kf);
  EXPECT_NEAR(u1.max_abs(), expected_peak, 0.05 * expected_peak);
  EXPECT_LT(u2.max_abs(), 0.05 * expected_peak);
}

TEST(LbmForcing, LaminarKolmogorovBalanceInLatticeUnits) {
  // Steady laminar balance: u₁(y) = A/(ν k²)·sin(k y), k = 2π k_f / N.
  const index_t n = 32;
  lbm::LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = 0.1;
  cfg.collision = lbm::Collision::kBgk;
  cfg.force_k = 1;
  const double k = 2.0 * std::numbers::pi / static_cast<double>(n);
  // Pick A so the steady peak velocity is a low-Mach 0.02.
  cfg.force_amplitude = 0.02 * cfg.viscosity * k * k;
  lbm::LbmSolver solver(cfg);
  TensorD zero({n, n});
  solver.initialize(zero, zero);
  solver.step(6000);
  EXPECT_FALSE(solver.has_blown_up());
  const TensorD u1 = solver.velocity_x();
  EXPECT_NEAR(u1.max_abs(), 0.02, 0.02 * 0.05);
  // Profile shape: u₁ at y = N/4 (sin peak) ≈ max.
  EXPECT_NEAR(u1(n / 4, 0), u1.max_abs(), 1e-4);
}

TEST(LbmForcing, SustainsTurbulentEnergy) {
  const index_t n = 32;
  lbm::LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = 5e-3;
  cfg.collision = lbm::Collision::kEntropic;
  cfg.force_k = 2;
  const double k = 2.0 * std::numbers::pi * 2.0 / static_cast<double>(n);
  cfg.force_amplitude = 0.04 * cfg.viscosity * k * k;
  lbm::LbmSolver solver(cfg);
  Rng rng(17);
  const auto field = lbm::random_vortex_velocity(n, n, 3.0, 0.02, rng);
  solver.initialize(field.u1, field.u2);
  solver.step(4000);
  EXPECT_FALSE(solver.has_blown_up());
  // Forced flow keeps a finite kinetic energy instead of decaying to zero.
  EXPECT_GT(solver.kinetic_energy(), 0.01 * 0.02 * 0.02 * n * n);
}

TEST(LbmForcing, RejectedForMrt) {
  lbm::LbmConfig cfg;
  cfg.nx = cfg.ny = 16;
  cfg.collision = lbm::Collision::kMrt;
  cfg.force_amplitude = 1e-5;
  lbm::LbmSolver solver(cfg);
  TensorD zero({16, 16});
  solver.initialize(zero, zero);
  EXPECT_THROW(solver.step(1), CheckError);
}

// --- MRT collision -------------------------------------------------------------------

TEST(Mrt, TaylorGreenViscousDecay) {
  const index_t n = 32;
  lbm::LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = 0.02;
  cfg.collision = lbm::Collision::kMrt;
  lbm::LbmSolver solver(cfg);
  const auto field = lbm::taylor_green_velocity(n, n, 0.02);
  solver.initialize(field.u1, field.u2);
  const double ke0 = solver.kinetic_energy();
  const index_t steps = 400;
  solver.step(steps);
  const double k = 2.0 * std::numbers::pi / static_cast<double>(n);
  const double expected =
      ke0 * std::exp(-4.0 * cfg.viscosity * k * k * static_cast<double>(steps));
  EXPECT_NEAR(solver.kinetic_energy() / expected, 1.0, 0.02);
}

TEST(Mrt, ConservesMassAndMatchesBgkAtLowMach) {
  const index_t n = 32;
  lbm::LbmConfig mrt_cfg{n, n, 0.02, lbm::Collision::kMrt};
  lbm::LbmConfig bgk_cfg = mrt_cfg;
  bgk_cfg.collision = lbm::Collision::kBgk;
  lbm::LbmSolver mrt(mrt_cfg), bgk(bgk_cfg);
  Rng rng(13);
  const auto field = lbm::random_vortex_velocity(n, n, 4.0, 0.02, rng);
  mrt.initialize(field.u1, field.u2);
  bgk.initialize(field.u1, field.u2);
  const double m0 = mrt.total_mass();
  mrt.step(100);
  bgk.step(100);
  EXPECT_NEAR(mrt.total_mass(), m0, 1e-9 * m0);
  // Hydrodynamic (low-Mach) agreement: differences are O(Ma³) plus the
  // differing non-hydrodynamic relaxation, both ≪ u₀.
  const TensorD um = mrt.velocity_x();
  const TensorD ub = bgk.velocity_x();
  double max_diff = 0.0;
  for (index_t c = 0; c < um.size(); ++c) {
    max_diff = std::max(max_diff, std::abs(um[c] - ub[c]));
  }
  EXPECT_LT(max_diff, 2e-4);
}

// --- Sobolev loss -------------------------------------------------------------------

TEST(SobolevLoss, ZeroOrderMatchesRelativeL2) {
  Rng rng(31);
  TensorF pred({3, 2, 8, 8}), target({3, 2, 8, 8});
  pred.fill_normal(rng, 0.0, 1.0);
  target.fill_normal(rng, 0.0, 1.0);
  const double h0 = nn::sobolev_loss(pred, target, 0.0).value;
  const double l2 = nn::relative_l2_loss(pred, target).value;
  EXPECT_NEAR(h0, l2, 1e-5);
}

TEST(SobolevLoss, PerfectPredictionIsZero) {
  Rng rng(33);
  TensorF t({2, 2, 8, 8});
  t.fill_normal(rng, 0.0, 1.0);
  EXPECT_LT(nn::sobolev_loss(t, t, 1.0).value, 1e-6);
}

TEST(SobolevLoss, PenalisesHighFrequencyErrorsMore) {
  // Same-L2 errors at low vs high wavenumber: the H1 loss must weigh the
  // high-k one more heavily.
  const index_t n = 32;
  TensorF target({1, 1, n, n});
  Rng rng(35);
  target.fill_normal(rng, 0.0, 1.0);
  TensorF low = target, high = target;
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      const double x = 2.0 * std::numbers::pi * ix / n;
      low(0, 0, iy, ix) += 0.1f * static_cast<float>(std::cos(x));
      high(0, 0, iy, ix) += 0.1f * static_cast<float>(std::cos(10.0 * x));
    }
  }
  EXPECT_NEAR(nn::relative_l2_error(low, target),
              nn::relative_l2_error(high, target), 1e-4);
  EXPECT_GT(nn::sobolev_error(high, target, 1.0),
            2.0 * nn::sobolev_error(low, target, 1.0));
}

TEST(SobolevLoss, GradientMatchesFiniteDifference) {
  Rng rng(37);
  TensorF pred({2, 2, 8, 8}), target({2, 2, 8, 8});
  pred.fill_normal(rng, 0.0, 1.0);
  target.fill_normal(rng, 0.0, 1.0);
  const nn::LossResult res = nn::sobolev_loss(pred, target, 0.1);
  const float eps = 1e-3f;
  for (index_t i = 0; i < pred.size(); i += 29) {
    TensorF p = pred;
    p[i] += eps;
    const double lp = nn::sobolev_loss(p, target, 0.1).value;
    p[i] -= 2 * eps;
    const double lm = nn::sobolev_loss(p, target, 0.1).value;
    const double numeric = (lp - lm) / (2.0 * eps);
    ASSERT_NEAR(res.grad[i], numeric,
                2e-2 * std::max(0.01, std::abs(numeric)))
        << "coordinate " << i;
  }
}

TEST(SobolevLoss, MetricMatchesLossValue) {
  Rng rng(39);
  TensorF pred({2, 1, 8, 8}), target({2, 1, 8, 8});
  pred.fill_normal(rng, 0.0, 1.0);
  target.fill_normal(rng, 0.0, 1.0);
  EXPECT_NEAR(nn::sobolev_error(pred, target, 0.7),
              nn::sobolev_loss(pred, target, 0.7).value, 1e-6);
}

TEST(Mrt, SurvivesWhereBgkBlowsUp) {
  const index_t n = 48;
  const double nu = 1e-4;
  const auto run = [&](lbm::Collision collision) {
    lbm::LbmConfig cfg;
    cfg.nx = n;
    cfg.ny = n;
    cfg.viscosity = nu;
    cfg.collision = collision;
    lbm::LbmSolver solver(cfg);
    Rng rng(7);
    const auto field = lbm::random_vortex_velocity(n, n, 6.0, 0.08, rng);
    solver.initialize(field.u1, field.u2);
    solver.step(600);
    return !solver.has_blown_up();
  };
  EXPECT_FALSE(run(lbm::Collision::kBgk));
  EXPECT_TRUE(run(lbm::Collision::kMrt));
}

}  // namespace
}  // namespace turb
