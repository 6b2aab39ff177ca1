#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "fft/fftnd.hpp"
#include "lbm/initializer.hpp"
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

double rel_l2(const TensorD& a, const TensorD& b) {
  TensorD d = a;
  d -= b;
  return d.norm() / b.norm();
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

TEST(NsSpectral, SetVelocityIgnoresGradientFields) {
  // A gradient field has no curl, so set_velocity(u + ∇φ) installs the
  // vorticity of set_velocity(u): a divergent input (an FNO prediction)
  // enters the PDE through its solenoidal part alone.
  for (const index_t n : {index_t{16}, index_t{32}, index_t{48}}) {
    NsConfig cfg;
    cfg.n = n;
    cfg.viscosity = 1e-3;
    cfg.dt = 1e-3;
    Rng rng(79 + static_cast<std::uint64_t>(n));
    const auto field = lbm::random_vortex_velocity(n, n, 3.0, 1.0, rng);
    const TensorD phi = lbm::random_vortex_velocity(n, n, 4.0, 1.0, rng).u1;
    TensorD v1 = field.u1, v2 = field.u2;
    v1 += derivative_x(phi);
    v2 += derivative_y(phi);
    ASSERT_GT(divergence(v1, v2).max_abs(), 1.0) << "n=" << n;
    SpectralNsSolver plain(cfg), divergent(cfg);
    plain.set_velocity(field.u1, field.u2);
    divergent.set_velocity(v1, v2);
    EXPECT_LE(rel_l2(divergent.vorticity(), plain.vorticity()), 1e-13)
        << "n=" << n;
  }
}

TEST(NsSpectral, InviscidInvariantsConservedOnBroadbandFields) {
  // The 2/3-rule truncated system conserves energy and enstrophy as ν → 0.
  // That holds only if the state is band-limited: a broadband input whose
  // content above n/3 stayed in the state would feed aliased products
  // into the kept band. Between RK4's O(dt⁴) error and rounding, 500 steps
  // drift by about 1e-11.
  for (const double k_peak : {8.0, 12.0}) {
    NsConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 1e-14;
    cfg.dt = 2e-4;
    SpectralNsSolver solver(cfg);
    Rng rng(11);
    const auto field = lbm::random_vortex_velocity(32, 32, k_peak, 1.0, rng);
    solver.set_velocity(field.u1, field.u2);
    TensorD u1, u2;
    solver.velocity(u1, u2);
    const double e0 = u1.squared_norm() + u2.squared_norm();
    const double z0 = enstrophy(solver.vorticity());
    solver.step(500);
    solver.velocity(u1, u2);
    const double e1 = u1.squared_norm() + u2.squared_norm();
    const double z1 = enstrophy(solver.vorticity());
    EXPECT_LE(std::abs(e1 - e0) / e0, 1e-10) << "k_peak=" << k_peak;
    EXPECT_LE(std::abs(z1 - z0) / z0, 1e-10) << "k_peak=" << k_peak;
  }
}

TEST(NsSpectral, ForcingWavenumberOutsideHalfGridRejected) {
  // The forced mode must lie in the band the solver keeps: 1 ≤ k_f < n/3
  // with dealiasing (at n = 16 the first k_f rejected is ⌊n/3⌋ + 1 = 6; at
  // n = 48 it is n/3 itself), 1 ≤ k_f ≤ n/2 (rows k_f and n − k_f of the
  // (n, n/2+1) spectrum) without.
  NsConfig cfg;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.forcing_amplitude = 0.5;
  for (const index_t n : {index_t{16}, index_t{48}}) {
    cfg.n = n;
    for (const bool dealias : {true, false}) {
      cfg.dealias = dealias;
      const index_t k_max = dealias ? (n - 1) / 3 : n / 2;
      for (const index_t k : {index_t{0}, index_t{-1}, k_max + 1, n}) {
        cfg.forcing_k = k;
        EXPECT_THROW(SpectralNsSolver{cfg}, CheckError)
            << "n=" << n << " forcing_k=" << k << " dealias=" << dealias;
      }
      for (const index_t k : {index_t{1}, k_max}) {
        cfg.forcing_k = k;
        SpectralNsSolver solver(cfg);
        solver.set_vorticity(taylor_green_vorticity(n, 0.1));
        solver.step(2);
        EXPECT_TRUE(std::isfinite(solver.vorticity().max_abs()))
            << "n=" << n << " forcing_k=" << k << " dealias=" << dealias;
      }
    }
  }
  // The error names the bound.
  cfg.n = 16;
  cfg.dealias = true;
  cfg.forcing_k = 6;
  try {
    SpectralNsSolver solver(cfg);
    ADD_FAILURE() << "forcing_k=6 accepted at n=16";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("must be in [1, 5]"),
              std::string::npos)
        << e.what();
  }
}

TEST(NsSpectral, ForcingAboveTwoThirdsCutoffDrivesFlow) {
  // From rest the forced vorticity grows as −A·2πk_f·cos(2πk_f y)·t (the
  // shear flow it drives has no advection), so max|ω| ≈ A·2πk_f·t. This
  // holds for any accepted k_f: above the 2/3-rule cutoff n/3 that means
  // dealiasing off.
  NsConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.dealias = false;
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

// --- reference steps for the planned spectral step --------------------------

/// The form in which ReferenceSpectralStep evaluates u·∇ω.
enum class Form {
  /// (∂ₓₓ − ∂ᵧᵧ)(uv) + ∂ₓ∂ᵧ(v² − u²), SpectralNsSolver's form.
  kBasdevant,
  /// u·ωₓ + v·ωᵧ, from four inverse transforms.
  kJacobian,
};

/// SpectralNsSolver's step on fresh tensors and fft::rfftn / fft::irfftn:
/// set_vorticity truncates ω̂ to the 2/3-rule band, ψ̂ is ŵ times a 1/k²
/// table, the velocity spectra are real products, and the epilogue runs
/// the select, the forcing and the viscous term in that order. With
/// Form::kBasdevant every per-element expression is the solver's, so its
/// bytes are the solver's reference; Form::kJacobian checks Basdevant's
/// identity on the same band-limited state.
class ReferenceSpectralStep {
 public:
  explicit ReferenceSpectralStep(NsConfig config,
                                 Form form = Form::kBasdevant)
      : config_(config), form_(form), what_({config.n, config.n / 2 + 1}) {}

  void set_vorticity(const TensorD& omega) {
    what_ = fft::rfftn(omega, 2);
    for (index_t iy = 0; iy < config_.n; ++iy) {
      for (index_t ix = 0; ix < config_.n / 2 + 1; ++ix) {
        if (!in_band(iy, ix)) what_(iy, ix) = 0.0;
      }
    }
  }

  void step(index_t steps) {
    for (index_t s = 0; s < steps; ++s) step_rk4();
  }

  [[nodiscard]] TensorD vorticity() const {
    return fft::irfftn(what_, 2, config_.n);
  }

 private:
  using SpecD = Tensor<std::complex<double>>;

  bool in_band(index_t iy, index_t ix) const {
    const index_t n = config_.n;
    const double kcut = config_.dealias ? static_cast<double>(n) / 3.0
                                        : static_cast<double>(n);
    return std::abs(fft_freq(iy, n)) < kcut &&
           static_cast<double>(ix) < kcut;
  }

  /// −FFT(u·∇ω), not yet masked.
  SpecD nonlinear(const SpecD& what) const {
    const index_t n = config_.n;
    const index_t nxr = n / 2 + 1;
    SpecD u1h({n, nxr}), u2h({n, nxr}), wxh({n, nxr}), wyh({n, nxr});
    for (index_t iy = 0; iy < n; ++iy) {
      const double ky = kTwoPi * deriv_freq(iy, n);
      for (index_t ix = 0; ix < nxr; ++ix) {
        const double kx = kTwoPi * deriv_freq(ix, n);
        const double k2 = kx * kx + ky * ky;
        const double inv_k2 = k2 == 0.0 ? 0.0 : 1.0 / k2;
        const std::complex<double> w = what(iy, ix);
        const double pr = w.real() * inv_k2;
        const double pi = w.imag() * inv_k2;
        u1h(iy, ix) = {-(ky * pi), ky * pr};
        u2h(iy, ix) = {kx * pi, -(kx * pr)};
        wxh(iy, ix) = {-(kx * w.imag()), kx * w.real()};
        wyh(iy, ix) = {-(ky * w.imag()), ky * w.real()};
      }
    }
    const TensorD u1 = fft::irfftn(u1h, 2, n);
    const TensorD u2 = fft::irfftn(u2h, 2, n);

    if (form_ == Form::kJacobian) {
      const TensorD wx = fft::irfftn(wxh, 2, n);
      const TensorD wy = fft::irfftn(wyh, 2, n);
      TensorD adv({n, n});
      for (index_t i = 0; i < adv.size(); ++i) {
        adv[i] = -(u1[i] * wx[i] + u2[i] * wy[i]);
      }
      return fft::rfftn(adv, 2);
    }

    TensorD uv({n, n}), vv_uu({n, n});
    for (index_t i = 0; i < uv.size(); ++i) {
      uv[i] = u1[i] * u2[i];
      vv_uu[i] = u2[i] * u2[i] - u1[i] * u1[i];
    }
    const SpecD ph = fft::rfftn(uv, 2);
    const SpecD qh = fft::rfftn(vv_uu, 2);
    SpecD advh({n, nxr});
    for (index_t iy = 0; iy < n; ++iy) {
      const double ky = kTwoPi * deriv_freq(iy, n);
      for (index_t ix = 0; ix < nxr; ++ix) {
        const double kx = kTwoPi * deriv_freq(ix, n);
        advh(iy, ix) =
            (kx * kx - ky * ky) * ph(iy, ix) + (kx * ky) * qh(iy, ix);
      }
    }
    return advh;
  }

  SpecD rhs(const SpecD& what) const {
    const index_t n = config_.n;
    SpecD out = nonlinear(what);
    for (index_t iy = 0; iy < n; ++iy) {
      for (index_t ix = 0; ix < n / 2 + 1; ++ix) {
        if (!in_band(iy, ix)) out(iy, ix) = 0.0;
      }
    }
    if (config_.forcing_amplitude != 0.0) {
      const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
      const double coeff = -config_.forcing_amplitude * kf *
                           static_cast<double>(n) * static_cast<double>(n) /
                           2.0;
      out(config_.forcing_k, index_t{0}) += coeff;
      out(n - config_.forcing_k, index_t{0}) += coeff;
    }
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
  Form form_;
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

TEST(NsSolver, PlannedStepMatchesReferenceBitwise) {
  // Trajectory bytes of the spectral solver are pinned to the reference
  // step above: every runnable ISA, lane batching on and off, pool widths 1
  // and 4, power-of-two grids and a Bluestein one (n = 48), both dealias
  // settings, forcing off and on at k_f = 4 ≤ n/3, and with dealiasing off
  // at k_f = n/2, where rows k_f and n − k_f are one row and take F̂ twice.
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
          const TensorD expected = reference.vorticity();
          for (const bool batching : {true, false}) {
            fft::ScopedLineBatching lanes(batching);
            for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
              ThreadPool::Scope scope(width);
              SpectralNsSolver solver(cfg);
              solver.set_vorticity(w0);
              solver.step(50);
              EXPECT_TRUE(same_bytes(solver.vorticity(), expected))
                  << util::isa_name(isa) << " n=" << n
                  << " dealias=" << dealias << " forcing=" << amplitude
                  << " k_f=" << kf << " batching=" << batching
                  << " width=" << width;
            }
          }
        }
      }
    }
  }
}

TEST(NsSolver, BasdevantStepMatchesJacobianForm) {
  // On a band-limited state both forms of u·∇ω compute the same 2/3-rule
  // Galerkin sum, so the solver and a Jacobian-form step differ only by
  // rounding.
  for (const index_t n : {index_t{16}, index_t{32}, index_t{48}}) {
    NsConfig cfg;
    cfg.n = n;
    cfg.viscosity = 1e-3;
    cfg.dt = 1e-3;
    Rng rng(151 + static_cast<std::uint64_t>(n));
    const auto field = lbm::random_vortex_velocity(n, n, 3.0, 1.0, rng);
    const TensorD w0 = vorticity_from_velocity(field.u1, field.u2);
    ReferenceSpectralStep jacobian(cfg, Form::kJacobian);
    jacobian.set_vorticity(w0);
    jacobian.step(1000);
    SpectralNsSolver solver(cfg);
    solver.set_vorticity(w0);
    solver.step(1000);
    EXPECT_LE(rel_l2(solver.vorticity(), jacobian.vorticity()), 1e-13)
        << "n=" << n;
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
