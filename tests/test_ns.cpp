#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "fft/fftnd.hpp"
#include "lbm/initializer.hpp"
#include "ns/gradient.hpp"
#include "ns/solver.hpp"
#include "ns/spectral_ops.hpp"
#include "obs/obs.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

TEST(NsSpectral, TaylorGreenViscousDecay) {
  NsConfig cfg;
  cfg.n = 64;
  cfg.viscosity = 1e-3;
  cfg.dt = 2e-4;
  SpectralNsSolver solver(cfg);
  solver.set_vorticity(taylor_green_vorticity(cfg.n, 1.0));
  const double z0 = enstrophy(solver.vorticity());
  const index_t steps = 500;
  solver.step(steps);
  const double z1 = enstrophy(solver.vorticity());
  // Enstrophy ∝ exp(−4 ν k² t), k = 2π.
  const double t = cfg.dt * static_cast<double>(steps);
  const double expected = z0 * std::exp(-4.0 * cfg.viscosity * kTwoPi * kTwoPi * t);
  EXPECT_NEAR(z1 / expected, 1.0, 1e-6);
}

TEST(NsSpectral, TaylorGreenShapePreserved) {
  // TG is a steady-shape solution: the vorticity field remains proportional
  // to its initial pattern.
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 2e-4;
  SpectralNsSolver solver(cfg);
  const TensorD w0 = taylor_green_vorticity(cfg.n, 1.0);
  solver.set_vorticity(w0);
  solver.step(300);
  const TensorD w1 = solver.vorticity();
  // Correlation coefficient with the initial field must stay ≈ 1.
  double dot = 0.0;
  for (index_t i = 0; i < w0.size(); ++i) dot += w0[i] * w1[i];
  const double corr = dot / (w0.norm() * w1.norm());
  EXPECT_NEAR(corr, 1.0, 1e-9);
}

TEST(NsSpectral, EnergyAndEnstrophyDecay) {
  NsConfig cfg;
  cfg.n = 48;
  cfg.viscosity = 5e-4;
  cfg.dt = 2e-4;
  SpectralNsSolver solver(cfg);
  Rng rng(67);
  const auto field = lbm::random_vortex_velocity(cfg.n, cfg.n, 4.0, 1.0, rng);
  solver.set_velocity(field.u1, field.u2);
  TensorD u1, u2;
  solver.velocity(u1, u2);
  double prev_ke = u1.squared_norm() + u2.squared_norm();
  double prev_z = enstrophy(solver.vorticity());
  for (int block = 0; block < 5; ++block) {
    solver.step(100);
    solver.velocity(u1, u2);
    const double ke = u1.squared_norm() + u2.squared_norm();
    const double z = enstrophy(solver.vorticity());
    EXPECT_LT(ke, prev_ke * 1.0001);
    EXPECT_LT(z, prev_z * 1.0001);
    prev_ke = ke;
    prev_z = z;
  }
}

TEST(NsSpectral, MeanVorticityConserved) {
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 5e-4;
  SpectralNsSolver solver(cfg);
  Rng rng(71);
  const auto field = lbm::random_vortex_velocity(cfg.n, cfg.n, 4.0, 1.0, rng);
  solver.set_velocity(field.u1, field.u2);
  solver.step(200);
  // Periodic domain: ∫ω dA = 0 for velocity-derived vorticity, and stays 0.
  EXPECT_NEAR(solver.vorticity().mean(), 0.0, 1e-10);
}

TEST(NsSpectral, SetVelocityProjectsDivergentInput) {
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 5e-4;
  SpectralNsSolver solver(cfg);
  Rng rng(73);
  TensorD u1({32, 32}), u2({32, 32});
  u1.fill_normal(rng, 0.0, 1.0);
  u2.fill_normal(rng, 0.0, 1.0);
  solver.set_velocity(u1, u2);  // must not throw; projection applied
  TensorD v1, v2;
  solver.velocity(v1, v2);
  EXPECT_LT(divergence(v1, v2).max_abs(), 1e-8);
}

TEST(NsSpectral, ForcingWavenumberOutsideHalfGridRejected) {
  // The spectral forcing writes spectrum rows k_f and n − k_f, so only
  // 1 ≤ k_f ≤ n/2 names a mode pair inside the (n, n/2+1) spectrum.
  NsConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.forcing_amplitude = 0.5;
  for (const index_t k : {index_t{0}, index_t{-1}, cfg.n / 2 + 1, cfg.n}) {
    cfg.forcing_k = k;
    EXPECT_THROW(SpectralNsSolver{cfg}, CheckError) << "forcing_k=" << k;
  }
  for (const index_t k : {index_t{1}, cfg.n / 2}) {
    cfg.forcing_k = k;
    SpectralNsSolver solver(cfg);
    solver.set_vorticity(taylor_green_vorticity(cfg.n, 0.1));
    solver.step(2);
    EXPECT_TRUE(std::isfinite(solver.vorticity().max_abs()))
        << "forcing_k=" << k;
  }
}

TEST(NsSpectral, ForcingAboveTwoThirdsCutoffDrivesFlow) {
  // From rest the forced vorticity grows as −A·2πk_f·cos(2πk_f y)·t (the
  // shear flow it drives has no advection), so max|ω| ≈ A·2πk_f·t. This
  // holds for any accepted k_f, including those above the 2/3-rule cutoff
  // n/3 that dealiasing removes from the advection term.
  NsConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.forcing_amplitude = 0.5;
  for (const index_t k : {index_t{6}, index_t{8}}) {
    cfg.forcing_k = k;
    SpectralNsSolver solver(cfg);
    solver.set_vorticity(TensorD({cfg.n, cfg.n}));
    solver.step(10);
    const double expected = cfg.forcing_amplitude * kTwoPi *
                            static_cast<double>(k) * solver.time();
    EXPECT_NEAR(solver.vorticity().max_abs() / expected, 1.0, 0.03)
        << "forcing_k=" << k;
  }
}

// --- bitwise oracle for the planned spectral step -----------------------------

/// Where ReferenceSpectralStep adds the forcing: before the 2/3-rule mask,
/// as the pre-plan step did (the verbatim default), or after it, the
/// solver's mask → forcing → viscous order.
enum class ForcingOrder { kBeforeMask, kAfterMask };

/// The spectral RK4 step as it was before the solver planned its grid: every
/// stage builds fresh tensors and runs fft::rfftn / fft::irfftn. Kept
/// verbatim (per-element expressions, their order, the forcing added before
/// the 2/3-rule mask) as the byte-level reference for SpectralNsSolver.
/// Because of that forcing order it agrees with the solver only while
/// k_f ≤ n/3 or dealiasing is off; ForcingOrder::kAfterMask moves the
/// forcing block after the mask and covers the rest.
class ReferenceSpectralStep {
 public:
  explicit ReferenceSpectralStep(NsConfig config,
                                 ForcingOrder order = ForcingOrder::kBeforeMask)
      : config_(config), order_(order), what_({config.n, config.n / 2 + 1}) {}

  void set_vorticity(const TensorD& omega) { what_ = fft::rfftn(omega, 2); }

  void step(index_t steps) {
    for (index_t s = 0; s < steps; ++s) step_rk4();
  }

  [[nodiscard]] TensorD vorticity() const {
    return fft::irfftn(what_, 2, config_.n);
  }

 private:
  using SpecD = Tensor<std::complex<double>>;

  SpecD nonlinear(const SpecD& what) const {
    const index_t n = config_.n;
    const index_t nxr = n / 2 + 1;
    SpecD u1h({n, nxr}), u2h({n, nxr}), wxh({n, nxr}), wyh({n, nxr});
    for (index_t iy = 0; iy < n; ++iy) {
      const double ky = kTwoPi * deriv_freq(iy, n);
      for (index_t ix = 0; ix < nxr; ++ix) {
        const double kx = kTwoPi * deriv_freq(ix, n);
        const double k2 = kx * kx + ky * ky;
        const std::complex<double> w = what(iy, ix);
        const std::complex<double> psi = (k2 == 0.0) ? 0.0 : w / k2;
        u1h(iy, ix) = std::complex<double>(0.0, ky) * psi;
        u2h(iy, ix) = std::complex<double>(0.0, -kx) * psi;
        wxh(iy, ix) = std::complex<double>(0.0, kx) * w;
        wyh(iy, ix) = std::complex<double>(0.0, ky) * w;
      }
    }
    const TensorD u1 = fft::irfftn(u1h, 2, n);
    const TensorD u2 = fft::irfftn(u2h, 2, n);
    const TensorD wx = fft::irfftn(wxh, 2, n);
    const TensorD wy = fft::irfftn(wyh, 2, n);

    TensorD adv({n, n});
    for (index_t i = 0; i < adv.size(); ++i) {
      adv[i] = -(u1[i] * wx[i] + u2[i] * wy[i]);
    }
    SpecD advh = fft::rfftn(adv, 2);

    const auto add_forcing = [&] {
      if (config_.forcing_amplitude != 0.0) {
        const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
        const double coeff = -config_.forcing_amplitude * kf *
                             static_cast<double>(n) * static_cast<double>(n) /
                             2.0;
        advh(config_.forcing_k, index_t{0}) += coeff;
        advh(n - config_.forcing_k, index_t{0}) += coeff;
      }
    };
    if (order_ == ForcingOrder::kBeforeMask) add_forcing();

    const double kcut = config_.dealias ? static_cast<double>(n) / 3.0
                                        : static_cast<double>(n);
    for (index_t iy = 0; iy < n; ++iy) {
      const double my = fft_freq(iy, n);
      for (index_t ix = 0; ix < nxr; ++ix) {
        const double mx = static_cast<double>(ix);
        if (std::abs(my) > kcut || mx > kcut) {
          advh(iy, ix) = 0.0;
        }
      }
    }
    if (order_ == ForcingOrder::kAfterMask) add_forcing();
    return advh;
  }

  SpecD rhs(const SpecD& what) const {
    const index_t n = config_.n;
    SpecD out = nonlinear(what);
    for (index_t iy = 0; iy < n; ++iy) {
      const double ky = kTwoPi * fft_freq(iy, n);
      for (index_t ix = 0; ix < n / 2 + 1; ++ix) {
        const double kx = kTwoPi * static_cast<double>(ix);
        out(iy, ix) -= config_.viscosity * (kx * kx + ky * ky) * what(iy, ix);
      }
    }
    return out;
  }

  void step_rk4() {
    const double dt = config_.dt;
    SpecD k1 = rhs(what_);
    SpecD k2w = what_;
    for (index_t i = 0; i < k2w.size(); ++i) k2w[i] += 0.5 * dt * k1[i];
    SpecD k2 = rhs(k2w);
    SpecD k3w = what_;
    for (index_t i = 0; i < k3w.size(); ++i) k3w[i] += 0.5 * dt * k2[i];
    SpecD k3 = rhs(k3w);
    SpecD k4w = what_;
    for (index_t i = 0; i < k4w.size(); ++i) k4w[i] += dt * k3[i];
    SpecD k4 = rhs(k4w);
    for (index_t i = 0; i < what_.size(); ++i) {
      what_[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
  }

  NsConfig config_;
  ForcingOrder order_;
  SpecD what_;
};

/// The ISAs this host runs: scalar, plus avx2 where the CPU has it.
std::vector<util::Isa> runnable_isas() {
  std::vector<util::Isa> isas{util::Isa::kScalar};
  if (util::cpu_supports_avx2()) isas.push_back(util::Isa::kAvx2);
  return isas;
}

bool same_bytes(const TensorD& a, const TensorD& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(double) *
                                             static_cast<std::size_t>(
                                                 a.size())) == 0;
}

/// Runs SpectralNsSolver from `w0` for `steps` steps with lane batching on
/// and off at pool widths 1 and 4, and compares its vorticity bytes with
/// `expected`.
void expect_planned_step_bytes(const NsConfig& cfg, const TensorD& w0,
                               index_t steps, const TensorD& expected,
                               const std::string& label) {
  for (const bool batching : {true, false}) {
    fft::ScopedLineBatching lanes(batching);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::Scope scope(width);
      SpectralNsSolver solver(cfg);
      solver.set_vorticity(w0);
      solver.step(steps);
      EXPECT_TRUE(same_bytes(solver.vorticity(), expected))
          << label << " batching=" << batching << " width=" << width;
    }
  }
}

TEST(NsSolver, PlannedStepMatchesReferenceBitwise) {
  // Trajectory bytes of the spectral solver are pinned to the reference
  // step above: every runnable ISA, lane batching on and off, pool widths 1
  // and 4, power-of-two grids and a Bluestein one (n = 48), both dealias
  // settings, forcing off and on at k_f = 4 ≤ n/3, and with dealiasing off
  // at k_f = n/2, where rows k_f and n − k_f are one row and take F̂ twice.
  // The fields are finite, so the gradient kernel never falls back.
  obs::Counter& fallbacks = obs::counter("ns/grad_fallbacks");
  const std::int64_t fallbacks0 = fallbacks.value();
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    for (const index_t n : {index_t{16}, index_t{32}, index_t{48}}) {
      Rng rng(101 + static_cast<std::uint64_t>(n));
      const auto field = lbm::random_vortex_velocity(n, n, 3.0, 1.0, rng);
      const TensorD w0 = vorticity_from_velocity(field.u1, field.u2);
      for (const bool dealias : {true, false}) {
        std::vector<std::pair<double, index_t>> forcings = {{0.0, 4},
                                                            {0.5, 4}};
        if (!dealias) forcings.emplace_back(0.5, n / 2);
        for (const auto& [amplitude, kf] : forcings) {
          NsConfig cfg;
          cfg.n = n;
          cfg.viscosity = 1e-3;
          cfg.dt = 1e-3;
          cfg.dealias = dealias;
          cfg.forcing_amplitude = amplitude;
          cfg.forcing_k = kf;
          ReferenceSpectralStep reference(cfg);
          reference.set_vorticity(w0);
          reference.step(50);
          std::ostringstream label;
          label << util::isa_name(isa) << " n=" << n << " dealias=" << dealias
                << " forcing=" << amplitude << " k_f=" << kf;
          expect_planned_step_bytes(cfg, w0, 50, reference.vorticity(),
                                    label.str());
        }
      }
    }
  }
  EXPECT_EQ(fallbacks.value() - fallbacks0, 0);
}

TEST(NsSolver, PlannedStepMatchesMaskFirstOracleAboveCutoff) {
  // With dealiasing on, a k_f above n/3 sits in the masked band, where the
  // verbatim reference zeroes its forcing. The mask-first oracle (the
  // select, then F̂, then −νk²ŵ) pins the solver's one-pass epilogue there:
  // at k_f = n/3 + 1, and at k_f = n/2, where F̂ lands twice on row n/2.
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    for (const index_t n : {index_t{16}, index_t{32}, index_t{48}}) {
      Rng rng(201 + static_cast<std::uint64_t>(n));
      const auto field = lbm::random_vortex_velocity(n, n, 3.0, 1.0, rng);
      const TensorD w0 = vorticity_from_velocity(field.u1, field.u2);
      for (const index_t kf : {n / 3 + 1, n / 2}) {
        NsConfig cfg;
        cfg.n = n;
        cfg.viscosity = 1e-3;
        cfg.dt = 1e-3;
        cfg.forcing_amplitude = 0.5;
        cfg.forcing_k = kf;
        ReferenceSpectralStep oracle(cfg, ForcingOrder::kAfterMask);
        oracle.set_vorticity(w0);
        oracle.step(50);
        std::ostringstream label;
        label << util::isa_name(isa) << " n=" << n << " k_f=" << kf;
        expect_planned_step_bytes(cfg, w0, 50, oracle.vorticity(),
                                  label.str());
      }
    }
  }
}

// --- the gradient kernel ------------------------------------------------------

using cpx = std::complex<double>;

/// The gradient loop as SpectralNsSolver ran it before the lane kernel,
/// verbatim: GCC's complex products, __muldc3 branch included.
void pinned_gradient_loop(const cpx* what, const double* kx_tab,
                          const double* ky_tab, index_t n, cpx* grad) {
  const index_t nxr = n / 2 + 1;
  const index_t plane = n * nxr;
  cpx* u1h = grad;
  cpx* u2h = u1h + plane;
  cpx* wxh = u2h + plane;
  cpx* wyh = wxh + plane;
  for (index_t iy = 0; iy < n; ++iy) {
    const double ky = ky_tab[iy];
    for (index_t ix = 0; ix < nxr; ++ix) {
      const double kx = kx_tab[ix];
      const double k2 = kx * kx + ky * ky;
      const index_t i = iy * nxr + ix;
      const cpx w = what[i];
      const cpx psi = (k2 == 0.0) ? 0.0 : w / k2;
      u1h[i] = cpx(0.0, ky) * psi;
      u2h[i] = cpx(0.0, -kx) * psi;
      wxh[i] = cpx(0.0, kx) * w;
      wyh[i] = cpx(0.0, ky) * w;
    }
  }
}

/// Whether the fast path of those products, as plain real arithmetic
/// ((0·zr − b·zi, 0·zi + b·zr), ψ as two real divisions), holds a NaN on
/// the columns the avx2 lanes cover: each row's whole pairs.
bool lane_gradients_hold_nan(const cpx* what, const double* kx_tab,
                             const double* ky_tab, index_t n) {
  const index_t nxr = n / 2 + 1;
  const auto times_i = [](double b, cpx z) {
    return cpx(0.0 * z.real() - b * z.imag(), 0.0 * z.imag() + b * z.real());
  };
  const auto nan = [](cpx z) {
    return std::isnan(z.real()) || std::isnan(z.imag());
  };
  for (index_t iy = 0; iy < n; ++iy) {
    const double ky = ky_tab[iy];
    for (index_t ix = 0; ix < nxr - nxr % 2; ++ix) {
      const double kx = kx_tab[ix];
      const double k2 = kx * kx + ky * ky;
      const cpx w = what[iy * nxr + ix];
      const cpx psi = (k2 == 0.0) ? cpx(0.0, 0.0)
                                  : cpx(w.real() / k2, w.imag() / k2);
      if (nan(times_i(ky, psi)) || nan(times_i(-kx, psi)) ||
          nan(times_i(kx, w)) || nan(times_i(ky, w))) {
        return true;
      }
    }
  }
  return false;
}

TEST(NsGradient, KernelMatchesPinnedLoopBitwise) {
  // spectral_gradients against the pinned loop, byte for byte, on every
  // runnable ISA. n/2+1 is 6 (whole pairs), 9 and 17 (a row tail). Each
  // special value goes into the real part, the imaginary part or both, at
  // both lane positions of the first pairs (column 0 of rows 0 and n/2 is
  // k² = 0), the last pair and the tail, of the first, the Nyquist and the
  // last row. On avx2 the fallback counter must advance exactly when the
  // lanes' plain arithmetic would hold a NaN; the scalar tier runs the
  // pinned loop and never counts.
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             inf,
                             -inf,
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -3.0e-310,
                             std::numeric_limits<double>::max(),
                             -1.0e300};
  obs::Counter& fallbacks = obs::counter("ns/grad_fallbacks");
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    std::int64_t fallback_cases = 0, recovered_cases = 0;
    for (const index_t n : {index_t{10}, index_t{16}, index_t{32}}) {
      const index_t nxr = n / 2 + 1;
      const index_t plane = n * nxr;
      std::vector<double> kx(static_cast<std::size_t>(nxr));
      std::vector<double> ky(static_cast<std::size_t>(n));
      for (index_t ix = 0; ix < nxr; ++ix) kx[ix] = kTwoPi * deriv_freq(ix, n);
      for (index_t iy = 0; iy < n; ++iy) ky[iy] = kTwoPi * deriv_freq(iy, n);
      Rng rng(300 + static_cast<std::uint64_t>(n));
      std::vector<cpx> base(static_cast<std::size_t>(plane));
      for (cpx& v : base) v = {10.0 * rng.normal(), 10.0 * rng.normal()};
      std::vector<cpx> got(static_cast<std::size_t>(4 * plane));
      std::vector<cpx> want(got.size());

      const auto check = [&](const std::vector<cpx>& what,
                             const std::string& label) {
        const bool lane_nan =
            isa == util::Isa::kAvx2 &&
            lane_gradients_hold_nan(what.data(), kx.data(), ky.data(), n);
        const std::int64_t before = fallbacks.value();
        spectral_gradients(what.data(), kx.data(), ky.data(), n, got.data());
        pinned_gradient_loop(what.data(), kx.data(), ky.data(), n,
                             want.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(cpx) * got.size()),
                  0)
            << util::isa_name(isa) << " n=" << n << " " << label;
        EXPECT_EQ(fallbacks.value() - before, lane_nan ? 1 : 0)
            << util::isa_name(isa) << " n=" << n << " " << label;
        if (lane_nan) {
          ++fallback_cases;
          bool pinned_nan = false;
          for (const cpx& v : want) {
            pinned_nan |= std::isnan(v.real()) || std::isnan(v.imag());
          }
          if (!pinned_nan) ++recovered_cases;
        }
      };

      check(base, "finite");
      const index_t cols[] = {0, 1, 2, 3, nxr - 2, nxr - 1};
      const index_t rows[] = {0, n / 2, n - 1};
      for (const double v : specials) {
        for (int part = 0; part < 3; ++part) {
          for (const index_t iy : rows) {
            for (const index_t ix : cols) {
              std::vector<cpx> what = base;
              cpx& z = what[static_cast<std::size_t>(iy * nxr + ix)];
              z = {part == 1 ? z.real() : v, part == 0 ? z.imag() : v};
              std::ostringstream label;
              label << "value=" << v << " part=" << part << " row=" << iy
                    << " col=" << ix;
              check(what, label.str());
            }
          }
        }
      }
    }
    // On avx2, non-finite inputs do reach the fallback, and (z = (±inf,
    // ±inf), where __muldc3 recovers infinities from the fast path's NaN)
    // it changes bits there.
    if (isa == util::Isa::kAvx2) {
      EXPECT_GT(fallback_cases, 0);
      EXPECT_GT(recovered_cases, 0);
    }
  }
}

TEST(NsSolver, PhaseSpansCountFourPerStepWithinStep) {
  // Each RK4 stage records its four phases once, on the calling thread, so
  // every span counts 4 per step at any pool width, and the phases nest
  // inside ns/step.
  constexpr const char* kPhases[] = {"ns/grad", "ns/inverse_fft",
                                     "ns/advect", "ns/forward_fft"};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    SpectralNsSolver solver(cfg);
    solver.set_vorticity(taylor_green_vorticity(cfg.n, 0.1));
    solver.step(1);  // registers the spans
    obs::TimerStat& step = obs::timer("ns/step");
    const std::int64_t step_count0 = step.count();
    const double step_total0 = step.total_seconds();
    std::int64_t count0[4];
    double total0[4];
    for (int p = 0; p < 4; ++p) {
      count0[p] = obs::timer(kPhases[p]).count();
      total0[p] = obs::timer(kPhases[p]).total_seconds();
    }
    constexpr index_t kSteps = 5;
    solver.step(kSteps);
    EXPECT_EQ(step.count() - step_count0, 1);
    double phases = 0.0;
    for (int p = 0; p < 4; ++p) {
      const obs::TimerStat& t = obs::timer(kPhases[p]);
      EXPECT_EQ(t.count() - count0[p], 4 * kSteps)
          << kPhases[p] << " width " << width;
      phases += t.total_seconds() - total0[p];
    }
    EXPECT_GT(phases, 0.0);
    EXPECT_LE(phases, step.total_seconds() - step_total0) << "width " << width;
  }
  obs::set_enabled(was_enabled);
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
