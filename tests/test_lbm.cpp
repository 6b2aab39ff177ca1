#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "lbm/initializer.hpp"
#include "lbm/solver.hpp"
#include "ns/spectral_ops.hpp"
#include "util/rng.hpp"

namespace turb::lbm {
namespace {

TEST(D2q9, WeightsSumToOne) {
  double s = 0.0;
  for (const double w : kWeights) s += w;
  EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(D2q9, LatticeIsotropy) {
  // Σ wᵢ c_{iα} c_{iβ} = c_s² δ_{αβ}
  double xx = 0.0, yy = 0.0, xy = 0.0;
  for (int i = 0; i < kQ; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    xx += kWeights[ui] * kCx[ui] * kCx[ui];
    yy += kWeights[ui] * kCy[ui] * kCy[ui];
    xy += kWeights[ui] * kCx[ui] * kCy[ui];
  }
  EXPECT_NEAR(xx, kCs2, 1e-15);
  EXPECT_NEAR(yy, kCs2, 1e-15);
  EXPECT_NEAR(xy, 0.0, 1e-15);
}

TEST(D2q9, OppositeDirections) {
  for (int i = 0; i < kQ; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const auto oi = static_cast<std::size_t>(kOpposite[ui]);
    EXPECT_EQ(kCx[oi], -kCx[ui]);
    EXPECT_EQ(kCy[oi], -kCy[ui]);
  }
}

TEST(Lbm, InitializationRecoversMacroscopicFields) {
  LbmConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.viscosity = 0.01;
  LbmSolver solver(cfg);
  const VelocityField field = taylor_green_velocity(16, 16, 0.05);
  solver.initialize(field.u1, field.u2);

  const TensorD rho = solver.density();
  const TensorD u1 = solver.velocity_x();
  const TensorD u2 = solver.velocity_y();
  for (index_t c = 0; c < rho.size(); ++c) {
    ASSERT_NEAR(rho[c], 1.0, 1e-12);
    ASSERT_NEAR(u1[c], field.u1[c], 1e-12);
    ASSERT_NEAR(u2[c], field.u2[c], 1e-12);
  }
}

TEST(Lbm, MassConservedExactly) {
  LbmConfig cfg;
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.viscosity = 0.005;
  LbmSolver solver(cfg);
  Rng rng(3);
  const VelocityField field = random_vortex_velocity(32, 32, 4.0, 0.05, rng);
  solver.initialize(field.u1, field.u2);
  const double m0 = solver.total_mass();
  solver.step(100);
  EXPECT_NEAR(solver.total_mass(), m0, 1e-9 * m0);
}

TEST(Lbm, StreamingMovesPulseCorrectly) {
  // Pure streaming (no collision effect on a uniform-density rest state
  // plus one perturbed population) translates data by cᵢ per step. We use a
  // BGK solver with ω→0 (ν→∞ is not reachable; instead verify via two steps
  // of a state at equilibrium — streaming of equilibrium is identity for
  // zero velocity).
  LbmConfig cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.viscosity = 0.1;
  cfg.collision = Collision::kBgk;
  LbmSolver solver(cfg);
  TensorD zero({8, 8});
  solver.initialize(zero, zero);
  solver.step(5);
  // Rest fluid stays at rest to round-off.
  EXPECT_LT(solver.velocity_x().max_abs(), 1e-14);
  EXPECT_LT(solver.velocity_y().max_abs(), 1e-14);
  const TensorD rho = solver.density();
  for (index_t c = 0; c < rho.size(); ++c) ASSERT_NEAR(rho[c], 1.0, 1e-14);
}

class TaylorGreenDecay
    : public ::testing::TestWithParam<std::tuple<double, Collision>> {};

TEST_P(TaylorGreenDecay, MatchesAnalyticViscousDecay) {
  const auto [viscosity, collision] = GetParam();
  const index_t n = 32;
  LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = viscosity;
  cfg.collision = collision;
  LbmSolver solver(cfg);
  const VelocityField field = taylor_green_velocity(n, n, 0.02);
  solver.initialize(field.u1, field.u2);

  const double ke0 = solver.kinetic_energy();
  const index_t steps = 400;
  solver.step(steps);
  const double ke1 = solver.kinetic_energy();

  // KE(t) = KE(0) exp(−4 ν k² t), k = 2π/N (one TG period per box).
  const double k = 2.0 * std::numbers::pi / static_cast<double>(n);
  const double expected =
      ke0 * std::exp(-4.0 * viscosity * k * k * static_cast<double>(steps));
  EXPECT_NEAR(ke1 / expected, 1.0, 0.02)
      << "nu=" << viscosity << " measured/expected KE ratio off";
}

INSTANTIATE_TEST_SUITE_P(
    Viscosities, TaylorGreenDecay,
    ::testing::Values(std::tuple{0.01, Collision::kBgk},
                      std::tuple{0.05, Collision::kBgk},
                      std::tuple{0.01, Collision::kEntropic},
                      std::tuple{0.05, Collision::kEntropic}));

TEST(Lbm, EntropicMatchesBgkWhenResolved) {
  // In a well-resolved flow the entropic root is α ≈ 2 and both operators
  // coincide.
  const index_t n = 32;
  LbmConfig bgk_cfg{n, n, 0.02, Collision::kBgk};
  LbmConfig ent_cfg{n, n, 0.02, Collision::kEntropic};
  LbmSolver bgk(bgk_cfg), ent(ent_cfg);
  const VelocityField field = taylor_green_velocity(n, n, 0.02);
  bgk.initialize(field.u1, field.u2);
  ent.initialize(field.u1, field.u2);
  bgk.step(50);
  ent.step(50);
  const TensorD ub = bgk.velocity_x();
  const TensorD ue = ent.velocity_x();
  double max_diff = 0.0;
  for (index_t c = 0; c < ub.size(); ++c) {
    max_diff = std::max(max_diff, std::abs(ub[c] - ue[c]));
  }
  EXPECT_LT(max_diff, 1e-6);
}

TEST(Lbm, EntropicSurvivesUnderResolvedFlow) {
  // Under-resolved high-Re decay: the entropic stabiliser must keep the
  // populations positive and finite.
  const index_t n = 48;
  LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = 1e-4;  // Re = u·N/ν ≈ 0.08·48/1e-4 ≈ 38k
  cfg.collision = Collision::kEntropic;
  LbmSolver solver(cfg);
  Rng rng(7);
  const VelocityField field = random_vortex_velocity(n, n, 6.0, 0.08, rng);
  solver.initialize(field.u1, field.u2);
  solver.step(600);
  EXPECT_FALSE(solver.has_blown_up());
  EXPECT_TRUE(std::isfinite(solver.kinetic_energy()));
}

TEST(Lbm, EntropicAlphaDeviatesFromTwoWhenStressed) {
  const index_t n = 48;
  LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = 1e-4;
  cfg.collision = Collision::kEntropic;
  LbmSolver solver(cfg);
  Rng rng(11);
  const VelocityField field = random_vortex_velocity(n, n, 6.0, 0.08, rng);
  solver.initialize(field.u1, field.u2);
  double min_alpha = 2.0, max_alpha = 2.0;
  for (int s = 0; s < 300; ++s) {
    solver.step(1);
    min_alpha = std::min(min_alpha, solver.entropic_stats().alpha_min);
    max_alpha = std::max(max_alpha, solver.entropic_stats().alpha_max);
  }
  // The limiter must have engaged somewhere in 300 under-resolved steps.
  EXPECT_LT(min_alpha, 1.999);
}

TEST(Lbm, KineticEnergyDecaysMonotonically) {
  const index_t n = 32;
  LbmConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.viscosity = 0.01;
  LbmSolver solver(cfg);
  Rng rng(13);
  const VelocityField field = random_vortex_velocity(n, n, 4.0, 0.05, rng);
  solver.initialize(field.u1, field.u2);
  double prev = solver.kinetic_energy();
  for (int block = 0; block < 10; ++block) {
    solver.step(20);
    const double ke = solver.kinetic_energy();
    EXPECT_LT(ke, prev * 1.0001) << "block " << block;
    prev = ke;
  }
}

TEST(Lbm, BetaFromViscosity) {
  LbmConfig cfg;
  cfg.viscosity = 0.05;
  cfg.nx = cfg.ny = 8;
  LbmSolver solver(cfg);
  EXPECT_NEAR(solver.beta(), 1.0 / (6.0 * 0.05 + 1.0), 1e-15);
}

TEST(Lbm, RejectsExcessiveVelocity) {
  LbmConfig cfg;
  cfg.nx = cfg.ny = 8;
  LbmSolver solver(cfg);
  TensorD u({8, 8}, 0.5);  // far beyond low-Mach
  EXPECT_THROW(solver.initialize(u, u), CheckError);
}

// --- initializers -----------------------------------------------------------

TEST(Initializer, VortexFieldIsSolenoidal) {
  Rng rng(17);
  const VelocityField field = random_vortex_velocity(64, 64, 4.0, 0.05, rng);
  const TensorD div = ns::divergence(field.u1, field.u2);
  // Spectral construction → divergence at round-off level relative to u.
  EXPECT_LT(div.max_abs(), 1e-10);
}

TEST(Initializer, VortexFieldRespectsAmplitude) {
  Rng rng(19);
  const VelocityField field = random_vortex_velocity(32, 32, 4.0, 0.07, rng);
  const double peak = std::max(field.u1.max_abs(), field.u2.max_abs());
  EXPECT_NEAR(peak, 0.07, 1e-12);
}

TEST(Initializer, VortexFieldHasZeroMean) {
  Rng rng(23);
  const VelocityField field = random_vortex_velocity(32, 32, 4.0, 0.05, rng);
  EXPECT_NEAR(field.u1.mean(), 0.0, 1e-14);
  EXPECT_NEAR(field.u2.mean(), 0.0, 1e-14);
}

TEST(Initializer, VortexSpectrumPeaksNearRequestedShell) {
  Rng rng(29);
  const VelocityField field = random_vortex_velocity(64, 64, 6.0, 0.05, rng);
  const auto spectrum = ns::energy_spectrum(field.u1, field.u2);
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    if (spectrum[k] > spectrum[argmax]) argmax = k;
  }
  EXPECT_GE(argmax, 3u);
  EXPECT_LE(argmax, 9u);
}

TEST(Initializer, UniformFieldWithinBounds) {
  Rng rng(31);
  const VelocityField field = random_uniform_velocity(16, 16, 0.03, rng);
  EXPECT_LE(field.u1.max_abs(), 0.03);
  EXPECT_LE(field.u2.max_abs(), 0.03);
  EXPECT_GT(field.u1.max_abs(), 0.01);  // actually random, not zero
}

TEST(Initializer, DifferentSeedsGiveDifferentFields) {
  Rng a(1), b(2);
  const VelocityField fa = random_vortex_velocity(16, 16, 4.0, 0.05, a);
  const VelocityField fb = random_vortex_velocity(16, 16, 4.0, 0.05, b);
  double diff = 0.0;
  for (index_t i = 0; i < fa.u1.size(); ++i) {
    diff = std::max(diff, std::abs(fa.u1[i] - fb.u1[i]));
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(Initializer, TaylorGreenMatchesFormula) {
  const VelocityField field = taylor_green_velocity(8, 8, 0.1);
  const double x = 2.0 * std::numbers::pi * 3.0 / 8.0;
  const double y = 2.0 * std::numbers::pi * 5.0 / 8.0;
  EXPECT_NEAR(field.u1(5, 3), 0.1 * std::sin(x) * std::cos(y), 1e-14);
  EXPECT_NEAR(field.u2(5, 3), -0.1 * std::cos(x) * std::sin(y), 1e-14);
}

}  // namespace
}  // namespace turb::lbm
