#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "lbm/initializer.hpp"
#include "ns/solver.hpp"
#include "ns/spectral_ops.hpp"
#include "util/rng.hpp"

namespace turb::ns {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Taylor–Green vorticity on the unit box: ω = 2k·U sin(kx)sin(ky), k = 2π.
TensorD taylor_green_vorticity(index_t n, double u0) {
  TensorD w({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    const double y = kTwoPi * static_cast<double>(iy) / static_cast<double>(n);
    for (index_t ix = 0; ix < n; ++ix) {
      const double x =
          kTwoPi * static_cast<double>(ix) / static_cast<double>(n);
      w(iy, ix) = 2.0 * kTwoPi * u0 * std::sin(x) * std::sin(y);
    }
  }
  return w;
}

double enstrophy(const TensorD& w) {
  return w.squared_norm() / static_cast<double>(w.size());
}

// --- spectral operators -----------------------------------------------------

TEST(SpectralOps, DerivativeOfSineIsCosine) {
  const index_t n = 32;
  TensorD f({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      f(iy, ix) = std::sin(kTwoPi * 3.0 * static_cast<double>(ix) / n);
    }
  }
  const TensorD fx = derivative_x(f);
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      const double expected =
          3.0 * kTwoPi * std::cos(kTwoPi * 3.0 * static_cast<double>(ix) / n);
      ASSERT_NEAR(fx(iy, ix), expected, 1e-9);
    }
  }
}

TEST(SpectralOps, DerivativeYOfPlaneWave) {
  const index_t n = 32;
  TensorD f({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      f(iy, ix) = std::cos(kTwoPi * 2.0 * static_cast<double>(iy) / n);
    }
  }
  const TensorD fy = derivative_y(f);
  for (index_t iy = 0; iy < n; ++iy) {
    const double expected =
        -2.0 * kTwoPi * std::sin(kTwoPi * 2.0 * static_cast<double>(iy) / n);
    ASSERT_NEAR(fy(iy, 0), expected, 1e-9);
  }
}

TEST(SpectralOps, VorticityVelocityRoundTrip) {
  // ω → u (Biot–Savart) → ω must be the identity for zero-mean ω.
  Rng rng(41);
  const auto field = lbm::random_vortex_velocity(32, 32, 4.0, 1.0, rng);
  const TensorD omega = vorticity_from_velocity(field.u1, field.u2);
  TensorD u1, u2;
  velocity_from_vorticity(omega, u1, u2);
  for (index_t i = 0; i < u1.size(); ++i) {
    ASSERT_NEAR(u1[i], field.u1[i], 1e-9);
    ASSERT_NEAR(u2[i], field.u2[i], 1e-9);
  }
}

TEST(SpectralOps, ReconstructedVelocityIsDivergenceFree) {
  Rng rng(43);
  TensorD omega({32, 32});
  omega.fill_normal(rng, 0.0, 1.0);
  TensorD u1, u2;
  velocity_from_vorticity(omega, u1, u2);
  EXPECT_LT(divergence(u1, u2).max_abs(), 1e-9 * omega.max_abs());
}

TEST(SpectralOps, LerayProjectionKillsDivergence) {
  Rng rng(47);
  TensorD u1({32, 32}), u2({32, 32});
  u1.fill_normal(rng, 0.0, 1.0);
  u2.fill_normal(rng, 0.0, 1.0);
  EXPECT_GT(divergence(u1, u2).max_abs(), 1.0);  // generic field is divergent
  leray_project(u1, u2);
  EXPECT_LT(divergence(u1, u2).max_abs(), 1e-9);
}

TEST(SpectralOps, LerayProjectionIsIdempotent) {
  Rng rng(53);
  TensorD u1({16, 16}), u2({16, 16});
  u1.fill_normal(rng, 0.0, 1.0);
  u2.fill_normal(rng, 0.0, 1.0);
  leray_project(u1, u2);
  TensorD v1 = u1, v2 = u2;
  leray_project(v1, v2);
  for (index_t i = 0; i < u1.size(); ++i) {
    ASSERT_NEAR(v1[i], u1[i], 1e-12);
    ASSERT_NEAR(v2[i], u2[i], 1e-12);
  }
}

TEST(SpectralOps, LerayPreservesSolenoidalFields) {
  Rng rng(59);
  const auto field = lbm::random_vortex_velocity(32, 32, 4.0, 1.0, rng);
  TensorD u1 = field.u1, u2 = field.u2;
  leray_project(u1, u2);
  for (index_t i = 0; i < u1.size(); ++i) {
    ASSERT_NEAR(u1[i], field.u1[i], 1e-10);
  }
}

TEST(SpectralOps, SpectralUpsampleInterpolatesExactly) {
  Rng rng(91);
  const auto field = lbm::random_vortex_velocity(16, 16, 3.0, 1.0, rng);
  const TensorD fine = spectral_upsample(field.u1, 2);
  ASSERT_EQ(fine.shape(), (Shape{32, 32}));
  // Band-limited field: the upsampled field matches at collocation points.
  for (index_t iy = 0; iy < 16; ++iy) {
    for (index_t ix = 0; ix < 16; ++ix) {
      ASSERT_NEAR(fine(2 * iy, 2 * ix), field.u1(iy, ix), 1e-10);
    }
  }
}

TEST(SpectralOps, SpectralUpsampleFactorOneIsIdentity) {
  Rng rng(92);
  TensorD f({8, 8});
  f.fill_normal(rng, 0.0, 1.0);
  const TensorD same = spectral_upsample(f, 1);
  for (index_t i = 0; i < f.size(); ++i) ASSERT_EQ(same[i], f[i]);
}

TEST(SpectralOps, EnergySpectrumSumsToMeanSquare) {
  Rng rng(61);
  const auto field = lbm::random_vortex_velocity(64, 64, 6.0, 1.0, rng);
  const auto spec = energy_spectrum(field.u1, field.u2);
  double total = 0.0;
  for (const double e : spec) total += e;
  const double ms = 0.5 *
                    (field.u1.squared_norm() + field.u2.squared_norm()) /
                    static_cast<double>(field.u1.size());
  EXPECT_NEAR(total, ms, 1e-8 * ms);
}

TEST(SpectralOps, TaylorGreenEnergyInShellOne) {
  const auto field = lbm::taylor_green_velocity(32, 32, 1.0);
  const auto spec = energy_spectrum(field.u1, field.u2);
  double total = 0.0;
  for (const double e : spec) total += e;
  // TG modes are (±1, ±1): shell round(√2) = 1.
  EXPECT_NEAR(spec[1] / total, 1.0, 1e-10);
}

// --- solvers ------------------------------------------------------------------

class NsScheme : public ::testing::TestWithParam<std::string> {};

TEST_P(NsScheme, TaylorGreenViscousDecay) {
  NsConfig cfg;
  cfg.n = 64;
  cfg.viscosity = 1e-3;
  cfg.dt = 2e-4;
  auto solver = make_ns_solver(GetParam(), cfg);
  solver->set_vorticity(taylor_green_vorticity(cfg.n, 1.0));
  const double z0 = enstrophy(solver->vorticity());
  const index_t steps = 500;
  solver->step(steps);
  const double z1 = enstrophy(solver->vorticity());
  // Enstrophy ∝ exp(−4 ν k² t), k = 2π.
  const double t = cfg.dt * static_cast<double>(steps);
  const double expected = z0 * std::exp(-4.0 * cfg.viscosity * kTwoPi * kTwoPi * t);
  const double tol = GetParam() == "spectral" ? 1e-6 : 0.02;
  EXPECT_NEAR(z1 / expected, 1.0, tol);
}

TEST_P(NsScheme, TaylorGreenShapePreserved) {
  // TG is a steady-shape solution: the vorticity field remains proportional
  // to its initial pattern.
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 2e-4;
  auto solver = make_ns_solver(GetParam(), cfg);
  const TensorD w0 = taylor_green_vorticity(cfg.n, 1.0);
  solver->set_vorticity(w0);
  solver->step(300);
  const TensorD w1 = solver->vorticity();
  // Correlation coefficient with the initial field must stay ≈ 1.
  double dot = 0.0;
  for (index_t i = 0; i < w0.size(); ++i) dot += w0[i] * w1[i];
  const double corr = dot / (w0.norm() * w1.norm());
  EXPECT_NEAR(corr, 1.0, GetParam() == "spectral" ? 1e-9 : 1e-4);
}

TEST_P(NsScheme, EnergyAndEnstrophyDecay) {
  NsConfig cfg;
  cfg.n = 48;
  cfg.viscosity = 5e-4;
  cfg.dt = 2e-4;
  auto solver = make_ns_solver(GetParam(), cfg);
  Rng rng(67);
  const auto field = lbm::random_vortex_velocity(cfg.n, cfg.n, 4.0, 1.0, rng);
  solver->set_velocity(field.u1, field.u2);
  TensorD u1, u2;
  solver->velocity(u1, u2);
  double prev_ke = u1.squared_norm() + u2.squared_norm();
  double prev_z = enstrophy(solver->vorticity());
  for (int block = 0; block < 5; ++block) {
    solver->step(100);
    solver->velocity(u1, u2);
    const double ke = u1.squared_norm() + u2.squared_norm();
    const double z = enstrophy(solver->vorticity());
    EXPECT_LT(ke, prev_ke * 1.0001);
    EXPECT_LT(z, prev_z * 1.0001);
    prev_ke = ke;
    prev_z = z;
  }
}

TEST_P(NsScheme, MeanVorticityConserved) {
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 5e-4;
  auto solver = make_ns_solver(GetParam(), cfg);
  Rng rng(71);
  const auto field = lbm::random_vortex_velocity(cfg.n, cfg.n, 4.0, 1.0, rng);
  solver->set_velocity(field.u1, field.u2);
  solver->step(200);
  // Periodic domain: ∫ω dA = 0 for velocity-derived vorticity, and stays 0.
  EXPECT_NEAR(solver->vorticity().mean(), 0.0, 1e-10);
}

TEST_P(NsScheme, SetVelocityProjectsDivergentInput) {
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 5e-4;
  auto solver = make_ns_solver(GetParam(), cfg);
  Rng rng(73);
  TensorD u1({32, 32}), u2({32, 32});
  u1.fill_normal(rng, 0.0, 1.0);
  u2.fill_normal(rng, 0.0, 1.0);
  solver->set_velocity(u1, u2);  // must not throw; projection applied
  TensorD v1, v2;
  solver->velocity(v1, v2);
  EXPECT_LT(divergence(v1, v2).max_abs(), 1e-8);
}

TEST_P(NsScheme, ForcingWavenumberOutsideHalfGridRejected) {
  // The spectral forcing writes spectrum rows k_f and n − k_f, so only
  // 1 ≤ k_f ≤ n/2 names a mode pair inside the (n, n/2+1) spectrum.
  NsConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.forcing_amplitude = 0.5;
  for (const index_t k : {index_t{0}, index_t{-1}, cfg.n / 2 + 1, cfg.n}) {
    cfg.forcing_k = k;
    EXPECT_THROW(make_ns_solver(GetParam(), cfg), CheckError)
        << "forcing_k=" << k;
  }
  for (const index_t k : {index_t{1}, cfg.n / 2}) {
    cfg.forcing_k = k;
    auto solver = make_ns_solver(GetParam(), cfg);
    solver->set_vorticity(taylor_green_vorticity(cfg.n, 0.1));
    solver->step(2);
    EXPECT_TRUE(std::isfinite(solver->vorticity().max_abs()))
        << "forcing_k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, NsScheme,
                         ::testing::Values(std::string("spectral"),
                                           std::string("fd")));

TEST(NsSolver, CrossSchemeAgreementShortTime) {
  // Both discretisations approximate the same PDE: after a short smooth
  // evolution they must agree to truncation error.
  NsConfig cfg;
  cfg.n = 64;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-4;
  SpectralNsSolver spectral(cfg);
  FdNsSolver fd(cfg);
  Rng rng(79);
  const auto field = lbm::random_vortex_velocity(cfg.n, cfg.n, 3.0, 1.0, rng);
  const TensorD w0 = vorticity_from_velocity(field.u1, field.u2);
  spectral.set_vorticity(w0);
  fd.set_vorticity(w0);
  spectral.step(100);
  fd.step(100);
  const TensorD ws = spectral.vorticity();
  const TensorD wf = fd.vorticity();
  double num = 0.0;
  for (index_t i = 0; i < ws.size(); ++i) {
    const double d = ws[i] - wf[i];
    num += d * d;
  }
  const double rel = std::sqrt(num / ws.squared_norm());
  EXPECT_LT(rel, 0.02);
}

TEST(NsSolver, FdConvergesToSpectralUnderRefinement) {
  // The FD error vs the spectral reference must shrink roughly 4× when the
  // grid is refined 2× (2nd-order accuracy).
  const auto run_error = [](index_t n) {
    NsConfig cfg;
    cfg.n = n;
    cfg.viscosity = 2e-3;
    cfg.dt = 5e-5;
    SpectralNsSolver spectral(cfg);
    FdNsSolver fd(cfg);
    // Smooth low-mode IC defined analytically at any resolution.
    TensorD w0({n, n});
    for (index_t iy = 0; iy < n; ++iy) {
      const double y = kTwoPi * static_cast<double>(iy) / n;
      for (index_t ix = 0; ix < n; ++ix) {
        const double x = kTwoPi * static_cast<double>(ix) / n;
        w0(iy, ix) = std::sin(x) * std::sin(y) + 0.5 * std::cos(2.0 * x) -
                     0.3 * std::sin(x + 2.0 * y);
      }
    }
    spectral.set_vorticity(w0);
    fd.set_vorticity(w0);
    spectral.step(200);
    fd.step(200);
    const TensorD ws = spectral.vorticity();
    const TensorD wf = fd.vorticity();
    double num = 0.0;
    for (index_t i = 0; i < ws.size(); ++i) {
      const double d = ws[i] - wf[i];
      num += d * d;
    }
    return std::sqrt(num / ws.squared_norm());
  };
  const double e32 = run_error(32);
  const double e64 = run_error(64);
  EXPECT_LT(e64, e32 / 2.5);  // comfortably better than 1st order
}

TEST(NsSolver, SuggestDtRespectsCflAndDiffusion) {
  NsConfig cfg;
  cfg.n = 64;
  cfg.viscosity = 1e-3;
  SpectralNsSolver solver(cfg);
  const double dt = solver.suggest_dt(2.0, 0.4);
  EXPECT_LE(dt, 0.4 * (1.0 / 64.0) / 2.0 + 1e-15);
  // Diffusion-limited case.
  NsConfig cfg2;
  cfg2.n = 64;
  cfg2.viscosity = 0.5;
  SpectralNsSolver solver2(cfg2);
  EXPECT_NEAR(solver2.suggest_dt(1e-6), 0.25 / (64.0 * 64.0 * 0.5), 1e-12);
}

TEST(NsSolver, UnknownSchemeRejected) {
  NsConfig cfg;
  EXPECT_THROW(make_ns_solver("upwind", cfg), CheckError);
}

TEST(NsSolver, TimeAccumulates) {
  NsConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  SpectralNsSolver solver(cfg);
  solver.set_vorticity(taylor_green_vorticity(16, 0.1));
  solver.step(10);
  EXPECT_NEAR(solver.time(), 1e-2, 1e-12);
  solver.set_vorticity(taylor_green_vorticity(16, 0.1));
  EXPECT_EQ(solver.time(), 0.0);  // reset on new state
}

}  // namespace
}  // namespace turb::ns
