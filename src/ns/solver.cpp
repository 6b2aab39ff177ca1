#include "ns/solver.hpp"

#include <cmath>
#include <numbers>
#include <string>

#include "fft/fftnd.hpp"
#include "ns/spectral_ops.hpp"
#include "obs/obs.hpp"

namespace turb::ns {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

void NsSolver::set_velocity(const TensorD& u1, const TensorD& u2) {
  TensorD p1 = u1, p2 = u2;
  leray_project(p1, p2);
  set_vorticity(vorticity_from_velocity(p1, p2));
}

void NsSolver::velocity(TensorD& u1, TensorD& u2) const {
  velocity_from_vorticity(vorticity(), u1, u2);
}

double NsSolver::suggest_dt(double u_max, double cfl) const {
  TURB_CHECK(u_max > 0.0);
  const double dx = 1.0 / static_cast<double>(config_.n);
  // Advective CFL plus an explicit-diffusion bound dt ≤ dx²/(4ν).
  const double dt_adv = cfl * dx / u_max;
  const double dt_diff = 0.25 * dx * dx / config_.viscosity;
  return std::min(dt_adv, dt_diff);
}

// --- spectral ----------------------------------------------------------------

SpectralNsSolver::SpectralNsSolver(NsConfig config)
    : NsSolver(config), what_({config.n, config.n / 2 + 1}) {}

void SpectralNsSolver::set_vorticity(const TensorD& omega) {
  TURB_CHECK(omega.shape() == (Shape{config_.n, config_.n}));
  what_ = fft::rfftn(omega, 2);
  time_ = 0.0;
}

SpectralNsSolver::SpecD SpectralNsSolver::nonlinear(const SpecD& what) const {
  const index_t n = config_.n;
  const index_t nxr = n / 2 + 1;
  // Velocity and vorticity gradients in spectral space.
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

  // Nonlinear term in physical space.
  TensorD adv({n, n});
  for (index_t i = 0; i < adv.size(); ++i) {
    adv[i] = -(u1[i] * wx[i] + u2[i] * wy[i]);
  }
  SpecD advh = fft::rfftn(adv, 2);

  // Kolmogorov forcing enters the vorticity equation as
  // −A·2πk_f·cos(2πk_f y): a purely real contribution at (±k_f, 0).
  if (config_.forcing_amplitude != 0.0) {
    const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
    // cos(2πk_f y) has coefficients M/2 at rows ±k_f, column 0 (rfft
    // forward convention is unscaled sums; the irfft divides by M).
    const double coeff = -config_.forcing_amplitude * kf *
                         static_cast<double>(n) * static_cast<double>(n) / 2.0;
    advh(config_.forcing_k, index_t{0}) += coeff;
    advh(n - config_.forcing_k, index_t{0}) += coeff;
  }

  // 2/3-rule dealiasing.
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
  return advh;
}

SpectralNsSolver::SpecD SpectralNsSolver::rhs(const SpecD& what) const {
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

void SpectralNsSolver::step(index_t steps) {
  TURB_TRACE_SCOPE("ns/step");
  static obs::Counter& counter = obs::counter("ns/steps");
  counter.add(steps);
  for (index_t s = 0; s < steps; ++s) {
    step_rk4();
    time_ += config_.dt;
  }
}

void SpectralNsSolver::step_rk4() {
  const double dt = config_.dt;
  {
    // Classic RK4.
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
}

TensorD SpectralNsSolver::vorticity() const {
  return fft::irfftn(what_, 2, config_.n);
}

// --- finite difference ---------------------------------------------------------

FdNsSolver::FdNsSolver(NsConfig config)
    : NsSolver(config), omega_({config.n, config.n}) {}

void FdNsSolver::set_vorticity(const TensorD& omega) {
  TURB_CHECK(omega.shape() == (Shape{config_.n, config_.n}));
  omega_ = omega;
  time_ = 0.0;
}

TensorD FdNsSolver::rhs(const TensorD& omega) const {
  const index_t n = config_.n;
  const double dx = 1.0 / static_cast<double>(n);

  // Streamfunction from the spectral Poisson solve: ∇²ψ = −ω.
  // (The paper's PR-DNS is finite-difference in space but also relies on a
  // fast elliptic solve; reusing the FFT here keeps the Jacobian and
  // Laplacian — the turbulence-relevant terms — strictly 2nd-order FD.)
  const index_t nxr = n / 2 + 1;
  Tensor<std::complex<double>> wh = fft::rfftn(omega, 2);
  for (index_t iy = 0; iy < n; ++iy) {
    const double ky = kTwoPi * fft_freq(iy, n);
    for (index_t ix = 0; ix < nxr; ++ix) {
      const double kx = kTwoPi * static_cast<double>(ix);
      const double k2 = kx * kx + ky * ky;
      wh(iy, ix) = (k2 == 0.0) ? 0.0 : wh(iy, ix) / k2;
    }
  }
  const TensorD psi = fft::irfftn(wh, 2, n);

  TensorD out({n, n});
  const double inv_12dx2 = 1.0 / (12.0 * dx * dx);
  const double inv_dx2 = 1.0 / (dx * dx);
  const auto idx = [n](index_t iy, index_t ix) {
    return ((iy + n) % n) * n + ((ix + n) % n);
  };
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      // Arakawa (1966) 9-point Jacobian J(ψ, ω): conserves mean vorticity,
      // energy, and enstrophy in the inviscid limit.
      const double p_e = psi[idx(iy, ix + 1)], p_w = psi[idx(iy, ix - 1)];
      const double p_n = psi[idx(iy + 1, ix)], p_s = psi[idx(iy - 1, ix)];
      const double p_ne = psi[idx(iy + 1, ix + 1)];
      const double p_nw = psi[idx(iy + 1, ix - 1)];
      const double p_se = psi[idx(iy - 1, ix + 1)];
      const double p_sw = psi[idx(iy - 1, ix - 1)];
      const double w_c = omega[idx(iy, ix)];
      const double w_e = omega[idx(iy, ix + 1)], w_w = omega[idx(iy, ix - 1)];
      const double w_n = omega[idx(iy + 1, ix)], w_s = omega[idx(iy - 1, ix)];
      const double w_ne = omega[idx(iy + 1, ix + 1)];
      const double w_nw = omega[idx(iy + 1, ix - 1)];
      const double w_se = omega[idx(iy - 1, ix + 1)];
      const double w_sw = omega[idx(iy - 1, ix - 1)];

      const double jpp = (p_e - p_w) * (w_n - w_s) - (p_n - p_s) * (w_e - w_w);
      const double jpx = p_e * (w_ne - w_se) - p_w * (w_nw - w_sw) -
                         p_n * (w_ne - w_nw) + p_s * (w_se - w_sw);
      const double jxp = w_n * (p_ne - p_nw) - w_s * (p_se - p_sw) -
                         w_e * (p_ne - p_se) + w_w * (p_nw - p_sw);
      // ∂ω/∂t = −u·∇ω = +J(ψ, ω) with u = (∂ψ/∂y, −∂ψ/∂x) and
      // J(ψ,ω) = ψ_x ω_y − ψ_y ω_x; each sub-Jacobian carries 1/(4d²) and
      // the Arakawa average 1/3, hence 1/(12d²) overall.
      const double jac = (jpp + jpx + jxp) * inv_12dx2;

      const double lap = (w_e + w_w + w_n + w_s - 4.0 * w_c) * inv_dx2;
      out[idx(iy, ix)] = jac + config_.viscosity * lap;
    }
  }
  if (config_.forcing_amplitude != 0.0) {
    const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
    for (index_t iy = 0; iy < n; ++iy) {
      const double y = static_cast<double>(iy) * dx;
      const double source = -config_.forcing_amplitude * kf * std::cos(kf * y);
      for (index_t ix = 0; ix < n; ++ix) {
        out[iy * n + ix] += source;
      }
    }
  }
  return out;
}

void FdNsSolver::step(index_t steps) {
  TURB_TRACE_SCOPE("ns/step");
  static obs::Counter& counter = obs::counter("ns/steps");
  counter.add(steps);
  const double dt = config_.dt;
  for (index_t s = 0; s < steps; ++s) {
    // SSP-RK3 (Shu–Osher).
    const TensorD k1 = rhs(omega_);
    TensorD w1 = omega_;
    w1.add_scaled(k1, dt);
    const TensorD k2 = rhs(w1);
    TensorD w2({config_.n, config_.n});
    for (index_t i = 0; i < w2.size(); ++i) {
      w2[i] = 0.75 * omega_[i] + 0.25 * (w1[i] + dt * k2[i]);
    }
    const TensorD k3 = rhs(w2);
    for (index_t i = 0; i < omega_.size(); ++i) {
      omega_[i] = omega_[i] / 3.0 + 2.0 / 3.0 * (w2[i] + dt * k3[i]);
    }
    time_ += dt;
  }
}

TensorD FdNsSolver::vorticity() const { return omega_; }

std::unique_ptr<NsSolver> make_ns_solver(const std::string& scheme,
                                         NsConfig config) {
  if (scheme == "spectral") return std::make_unique<SpectralNsSolver>(config);
  if (scheme == "fd") return std::make_unique<FdNsSolver>(config);
  TURB_CHECK_MSG(false, "unknown NS scheme: " << scheme);
  return nullptr;
}

}  // namespace turb::ns
