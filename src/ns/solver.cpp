#include "ns/solver.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/fftnd.hpp"
#include "ns/spectral_ops.hpp"
#include "obs/obs.hpp"

namespace turb::ns {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

void NsSolver::set_velocity(const TensorD& u1, const TensorD& u2) {
  set_vorticity(vorticity_from_velocity(u1, u2));
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

SpectralNsSolver::SpectralNsSolver(NsConfig config)
    : NsSolver(config),
      what_({config.n, config.n / 2 + 1}),
      stage_({config.n, config.n / 2 + 1}),
      block_({2, config.n, config.n / 2 + 1}),
      fields_({2, config.n, config.n}) {
  const index_t n = config_.n;
  const index_t nxr = n / 2 + 1;
  for (SpecD& k : k_) k = SpecD({n, nxr});

  kx_.resize(static_cast<std::size_t>(nxr));
  ky_.resize(static_cast<std::size_t>(n));
  for (index_t ix = 0; ix < nxr; ++ix) kx_[ix] = kTwoPi * deriv_freq(ix, n);
  for (index_t iy = 0; iy < n; ++iy) ky_[iy] = kTwoPi * deriv_freq(iy, n);

  // 1/k² takes the derivative tables, so it is 0 at the mean and at the
  // Nyquist modes (whose k² they make 0). ν·k² and the 2/3 rule take the
  // signed frequency, Nyquist included. The rule keeps element (iy, ix)
  // when |my| < n/3 and mx < n/3, a prefix of each row: a product of two
  // kept modes then aliases onto no kept mode (at |m| = n/3 it would).
  const double kcut = config_.dealias ? static_cast<double>(n) / 3.0
                                      : static_cast<double>(n);
  inv_k2_.resize(static_cast<std::size_t>(n * nxr));
  nu_k2_.resize(static_cast<std::size_t>(n * nxr));
  kept_cols_.assign(static_cast<std::size_t>(n), 0);
  for (index_t iy = 0; iy < n; ++iy) {
    const double my = fft_freq(iy, n);
    const double ky = kTwoPi * my;
    for (index_t ix = 0; ix < nxr; ++ix) {
      const double mx = static_cast<double>(ix);
      const double kx = kTwoPi * mx;
      const double dk2 = kx_[ix] * kx_[ix] + ky_[iy] * ky_[iy];
      inv_k2_[static_cast<std::size_t>(iy * nxr + ix)] =
          dk2 == 0.0 ? 0.0 : 1.0 / dk2;
      nu_k2_[static_cast<std::size_t>(iy * nxr + ix)] =
          config_.viscosity * (kx * kx + ky * ky);
      if (std::abs(my) < kcut && mx < kcut) {
        ++kept_cols_[static_cast<std::size_t>(iy)];
      }
    }
  }

  // Kolmogorov forcing enters the vorticity equation as
  // −A·2πk_f·cos(2πk_f y): a purely real contribution at (±k_f, 0), inside
  // the band (the NsSolver constructor bounds k_f). cos(2πk_f y) has
  // coefficients M/2 at rows ±k_f, column 0 (the rfft forward convention
  // is unscaled sums; the irfft divides by M).
  if (config_.forcing_amplitude != 0.0) {
    const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
    forcing_coeff_ = -config_.forcing_amplitude * kf *
                     static_cast<double>(n) * static_cast<double>(n) / 2.0;
  }

  rfft_tw_.resize(static_cast<std::size_t>(n / 2 + 1));
  irfft_tw_.resize(static_cast<std::size_t>(n / 2));
  fft::fill_rfft_twiddles(rfft_tw_.data(), n);
  fft::fill_irfft_twiddles(irfft_tw_.data(), n);
  block_c2c_ = fft::c2c_stages(block_.shape(), 2, nullptr)[0];
}

void SpectralNsSolver::set_vorticity(const TensorD& omega) {
  TURB_CHECK(omega.shape() == (Shape{config_.n, config_.n}));
  fft::rfftn_into(omega, 2, what_);
  // The 2/3-rule truncation, a select: zero every mode past the row's
  // kept prefix. The step's select then keeps the state in the band.
  const index_t nxr = config_.n / 2 + 1;
  for (index_t iy = 0; iy < config_.n; ++iy) {
    cpx* row = what_.data() + iy * nxr;
    std::fill(row + kept_cols_[static_cast<std::size_t>(iy)], row + nxr,
              cpx(0.0));
  }
  fit_line_scratch(ThreadPool::current());
  time_ = 0.0;
}

void SpectralNsSolver::fit_line_scratch(const ThreadPool& pool) {
  if (pool.size() <= slots_) return;
  slots_ = pool.size();
  const index_t h = config_.n / 2;
  const index_t per_slot = (2 * h + 1) * fft::kMaxLanes;
  line_scratch_.resize(slots_ * static_cast<std::size_t>(per_slot));
}

void SpectralNsSolver::rhs(ThreadPool& pool, const SpecD& what, SpecD& out) {
  const index_t n = config_.n;
  const index_t nxr = n / 2 + 1;
  const index_t z_len = (n / 2) * fft::kMaxLanes;
  const std::size_t per_slot = line_scratch_.size() / slots_;
  const auto scratch = [&] {
    cpx* z = line_scratch_.data() + pool.scratch_slot() * per_slot;
    return fft::LineScratch<double>{z, z + z_len};
  };

  const index_t plane = n * nxr;
  cpx* u1h = block_.data();
  cpx* u2h = u1h + plane;

  // Phase spans, recorded here on the calling thread around the pool
  // calls (never inside a worker).
  {
    // ψ̂ = ŵ·(1/k²), then û₁ = i·ky·ψ̂ and û₂ = −i·kx·ψ̂ as real products.
    TURB_TRACE_SCOPE("ns/grad");
    const cpx* w = what.data();
    for (index_t iy = 0; iy < n; ++iy) {
      const double ky = ky_[iy];
      for (index_t ix = 0; ix < nxr; ++ix) {
        const index_t i = iy * nxr + ix;
        const double pr = w[i].real() * inv_k2_[i];
        const double pi = w[i].imag() * inv_k2_[i];
        u1h[i] = cpx(-(ky * pi), ky * pr);
        u2h[i] = cpx(kx_[ix] * pi, -(kx_[ix] * pr));
      }
    }
  }
  {
    // Both inverse transforms as one: the y stage over the block, then its
    // 2n rows.
    TURB_TRACE_SCOPE("ns/inverse_fft");
    fft::c2c_stage(pool, block_.data(), block_.data(), block_c2c_,
                   /*forward=*/false, scratch);
    fft::irfft_rows(pool, block_.data(), fields_.data(), 2 * n, n,
                    irfft_tw_.data(), scratch);
  }
  {
    // The products of Basdevant's form, over u₁ and u₂.
    TURB_TRACE_SCOPE("ns/advect");
    double* p = fields_.data();
    double* q = p + n * n;
    for (index_t i = 0; i < n * n; ++i) {
      const double u = p[i];
      const double v = q[i];
      p[i] = u * v;
      q[i] = v * v - u * u;
    }
  }
  {
    TURB_TRACE_SCOPE("ns/forward_fft");
    fft::rfft_rows(pool, fields_.data(), block_.data(), 2 * n, n, nullptr,
                   rfft_tw_.data(), scratch);
    fft::c2c_stage(pool, block_.data(), block_.data(), block_c2c_,
                   /*forward=*/true, scratch);
  }

  // One pass per element. In the band: −u·∇ω, whose factors on the
  // spectra of uv and v² − u² are ky² − kx² and −kx·ky, negated; then the
  // forcing, twice at (n/2, 0) when k_f = n/2 makes rows k_f and n − k_f
  // one row; then the viscous term. Outside it, the select writes 0: ŵ is
  // 0 there, so −νk²ŵ is too. The band is a prefix of each row, and holds
  // every forced bin.
  const cpx* ph = block_.data();
  const cpx* qh = ph + plane;
  const bool forced = config_.forcing_amplitude != 0.0;
  const index_t kf = config_.forcing_k;
  for (index_t iy = 0; iy < n; ++iy) {
    const index_t row = iy * nxr;
    cpx* o = out.data() + row;
    const cpx* w = what.data() + row;
    const double* nu = nu_k2_.data() + row;
    const double ky = ky_[iy];
    const double ky2 = ky * ky;
    const auto adv = [&](index_t ix) {
      const double kx = kx_[ix];
      return (kx * kx - ky2) * ph[row + ix] + (kx * ky) * qh[row + ix];
    };
    const index_t kept = kept_cols_[static_cast<std::size_t>(iy)];
    const int hits = forced ? int{iy == kf} + int{iy == n - kf} : 0;
    index_t ix = 0;
    if (hits > 0) {
      cpx v = adv(0);
      for (int h = 0; h < hits; ++h) v += forcing_coeff_;
      o[0] = v - nu[0] * w[0];
      ix = 1;
    }
    for (; ix < kept; ++ix) o[ix] = adv(ix) - nu[ix] * w[ix];
    std::fill(o + kept, o + nxr, cpx(0.0));
  }
}

void SpectralNsSolver::step(index_t steps) {
  TURB_TRACE_SCOPE("ns/step");
  static obs::Counter& counter = obs::counter("ns/steps");
  counter.add(steps);
  ThreadPool& pool = ThreadPool::current();
  fit_line_scratch(pool);
  for (index_t s = 0; s < steps; ++s) {
    step_rk4(pool);
    time_ += config_.dt;
  }
}

void SpectralNsSolver::step_rk4(ThreadPool& pool) {
  // Classic RK4.
  const double dt = config_.dt;
  const index_t size = what_.size();
  rhs(pool, what_, k_[0]);
  for (index_t i = 0; i < size; ++i) stage_[i] = what_[i] + 0.5 * dt * k_[0][i];
  rhs(pool, stage_, k_[1]);
  for (index_t i = 0; i < size; ++i) stage_[i] = what_[i] + 0.5 * dt * k_[1][i];
  rhs(pool, stage_, k_[2]);
  for (index_t i = 0; i < size; ++i) stage_[i] = what_[i] + dt * k_[2][i];
  rhs(pool, stage_, k_[3]);
  for (index_t i = 0; i < size; ++i) {
    what_[i] += dt / 6.0 * (k_[0][i] + 2.0 * k_[1][i] + 2.0 * k_[2][i] +
                            k_[3][i]);
  }
}

TensorD SpectralNsSolver::vorticity() const {
  return fft::irfftn(what_, 2, config_.n);
}

}  // namespace turb::ns
