#include "lbm/solver.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace turb::lbm {

namespace {
/// Entropic fast path: when every |Δᵢ|/fᵢ is below this, the entropic root
/// is indistinguishable from α = 2 (the BGK limit) and the Newton solve is
/// skipped.
constexpr double kEntropicFastPathThreshold = 1e-3;
/// MRT relaxation rates for the non-hydrodynamic moments (energy,
/// energy-square, heat-flux). The stress rate is set by the viscosity.
constexpr double kMrtSe = 1.4;
constexpr double kMrtSeps = 1.4;
constexpr double kMrtSq = 1.2;
}  // namespace

LbmSolver::LbmSolver(LbmConfig config)
    : config_(config),
      beta_(1.0 / (6.0 * config.viscosity + 1.0)),
      cells_(config.nx * config.ny),
      f_(static_cast<std::size_t>(kQ * cells_), 0.0),
      f_post_(static_cast<std::size_t>(kQ * cells_), 0.0) {
  TURB_CHECK(config_.nx >= 4 && config_.ny >= 4);
  TURB_CHECK_MSG(config_.viscosity > 0.0, "viscosity must be positive");
}

void LbmSolver::equilibrium(double rho, double ux, double uy, double* feq) {
  // Closed-form entropy minimiser (product form). For |u| → 0 it agrees with
  // the usual second-order polynomial equilibrium to O(u³) but stays
  // positive for all |u| < 1.
  const double sx = std::sqrt(1.0 + 3.0 * ux * ux);
  const double sy = std::sqrt(1.0 + 3.0 * uy * uy);
  const double ax = 2.0 - sx;
  const double ay = 2.0 - sy;
  const double bx = (2.0 * ux + sx) / (1.0 - ux);
  const double by = (2.0 * uy + sy) / (1.0 - uy);
  const double inv_bx = 1.0 / bx;
  const double inv_by = 1.0 / by;
  const double base = rho * ax * ay;
  for (int i = 0; i < kQ; ++i) {
    double v = base * kWeights[static_cast<std::size_t>(i)];
    v *= (kCx[static_cast<std::size_t>(i)] > 0)   ? bx
         : (kCx[static_cast<std::size_t>(i)] < 0) ? inv_bx
                                                  : 1.0;
    v *= (kCy[static_cast<std::size_t>(i)] > 0)   ? by
         : (kCy[static_cast<std::size_t>(i)] < 0) ? inv_by
                                                  : 1.0;
    feq[i] = v;
  }
}

namespace {

/// Discrete H-function H(f) = Σ fᵢ ln(fᵢ/wᵢ).
double entropy(const double* f) {
  double h = 0.0;
  for (int i = 0; i < kQ; ++i) {
    h += f[i] * std::log(f[i] / kWeights[static_cast<std::size_t>(i)]);
  }
  return h;
}

}  // namespace

double LbmSolver::solve_alpha(const double* f, const double* delta) {
  // Positivity bound: f + αΔ must stay positive.
  double alpha_cap = 1e30;
  for (int i = 0; i < kQ; ++i) {
    if (delta[i] < 0.0) {
      alpha_cap = std::min(alpha_cap, -f[i] / delta[i]);
    }
  }
  alpha_cap *= 0.999;

  const double h0 = entropy(f);
  const auto g = [&](double a) {
    double h = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const double fi = f[i] + a * delta[i];
      h += fi * std::log(fi / kWeights[static_cast<std::size_t>(i)]);
    }
    return h - h0;
  };
  const auto gprime = [&](double a) {
    double d = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const double fi = f[i] + a * delta[i];
      d += delta[i] *
           (std::log(fi / kWeights[static_cast<std::size_t>(i)]) + 1.0);
    }
    return d;
  };

  // Bracket the nontrivial root: G(1) ≤ 0 (the equilibrium minimises H);
  // expand upward until G > 0 or the positivity cap binds.
  double lo = 1.0;
  double hi = std::min(2.0, alpha_cap);
  while (g(hi) <= 0.0) {
    if (hi >= alpha_cap) return alpha_cap;  // root beyond positivity: clamp
    lo = hi;
    hi = std::min(hi * 1.5, alpha_cap);
  }

  // Safeguarded Newton within [lo, hi].
  double alpha = std::clamp(2.0, lo, hi);
  for (int iter = 0; iter < 30; ++iter) {
    const double val = g(alpha);
    if (std::abs(val) < 1e-12) break;
    if (val > 0.0) {
      hi = alpha;
    } else {
      lo = alpha;
    }
    const double deriv = gprime(alpha);
    double next = (deriv != 0.0) ? alpha - val / deriv : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::abs(next - alpha) < 1e-12) {
      alpha = next;
      break;
    }
    alpha = next;
  }
  return alpha;
}

void LbmSolver::collide_mrt() {
  // Lallemand–Luo D2Q9 moment basis for the velocity ordering of d2q9.hpp:
  // (ρ, e, ε, jx, qx, jy, qy, pxx, pxy). Rows are mutually orthogonal with
  // squared norms {9, 36, 36, 6, 12, 6, 12, 4, 4}.
  static constexpr double kM[9][9] = {
      {1, 1, 1, 1, 1, 1, 1, 1, 1},          // rho
      {-4, -1, -1, -1, -1, 2, 2, 2, 2},     // e
      {4, -2, -2, -2, -2, 1, 1, 1, 1},      // eps
      {0, 1, 0, -1, 0, 1, -1, -1, 1},       // jx
      {0, -2, 0, 2, 0, 1, -1, -1, 1},       // qx
      {0, 0, 1, 0, -1, 1, 1, -1, -1},       // jy
      {0, 0, -2, 0, 2, 1, 1, -1, -1},       // qy
      {0, 1, -1, 1, -1, 0, 0, 0, 0},        // pxx
      {0, 0, 0, 0, 0, 1, -1, 1, -1},        // pxy
  };
  static constexpr double kNormSq[9] = {9, 36, 36, 6, 12, 6, 12, 4, 4};

  // Stress moments relax at the viscosity rate; conserved moments at 0.
  const double s_nu = 1.0 / (3.0 * config_.viscosity + 0.5);
  const double s[9] = {0.0, kMrtSe, kMrtSeps, 0.0, kMrtSq,
                       0.0, kMrtSq, s_nu,     s_nu};

  parallel_for_chunked(0, cells_, [&](index_t begin, index_t end) {
    double fi[kQ], m[kQ], meq[kQ];
    for (index_t c = begin; c < end; ++c) {
      for (int i = 0; i < kQ; ++i) {
        fi[i] = f_[static_cast<std::size_t>(i * cells_ + c)];
      }
      for (int k = 0; k < kQ; ++k) {
        double acc = 0.0;
        for (int i = 0; i < kQ; ++i) acc += kM[k][i] * fi[i];
        m[k] = acc;
      }
      const double rho = m[0];
      const double jx = m[3], jy = m[5];
      const double j2 = (jx * jx + jy * jy) / rho;
      meq[0] = rho;
      meq[1] = -2.0 * rho + 3.0 * j2;
      meq[2] = rho - 3.0 * j2;
      meq[3] = jx;
      meq[4] = -jx;
      meq[5] = jy;
      meq[6] = -jy;
      meq[7] = (jx * jx - jy * jy) / rho;
      meq[8] = jx * jy / rho;
      for (int k = 0; k < kQ; ++k) {
        m[k] -= s[k] * (m[k] - meq[k]);
      }
      // Inverse transform via orthogonality: f_i = Σ_k m_k M_{k,i}/‖M_k‖².
      for (int i = 0; i < kQ; ++i) {
        double acc = 0.0;
        for (int k = 0; k < kQ; ++k) acc += m[k] * kM[k][i] / kNormSq[k];
        f_[static_cast<std::size_t>(i * cells_ + c)] = acc;
      }
    }
  });
  stats_ = EntropicStats{};  // α diagnostics do not apply
}

void LbmSolver::collide() {
  if (config_.collision == Collision::kMrt) {
    TURB_CHECK_MSG(config_.force_amplitude == 0.0,
                   "body force is implemented for BGK/entropic collisions");
    collide_mrt();
    return;
  }
  const double beta = beta_;
  const bool entropic = config_.collision == Collision::kEntropic;
  const bool forced = config_.force_amplitude != 0.0;

  std::mutex stats_mutex;
  EntropicStats step_stats;
  step_stats.alpha_min = 2.0;
  step_stats.alpha_max = 2.0;

  const double two_pi = 2.0 * 3.14159265358979323846;
  const index_t nx = config_.nx;

  parallel_for_chunked(0, cells_, [&](index_t begin, index_t end) {
    double local_min = 2.0, local_max = 2.0;
    index_t local_newton = 0;
    double fi[kQ], feq[kQ], delta[kQ];
    for (index_t c = begin; c < end; ++c) {
      double rho = 0.0, jx = 0.0, jy = 0.0;
      for (int i = 0; i < kQ; ++i) {
        const double v = f_[static_cast<std::size_t>(i * cells_ + c)];
        fi[i] = v;
        rho += v;
        jx += kCx[static_cast<std::size_t>(i)] * v;
        jy += kCy[static_cast<std::size_t>(i)] * v;
      }
      const double inv_rho = 1.0 / rho;
      double fx = 0.0;
      if (forced) {
        const index_t iy = c / nx;
        fx = config_.force_amplitude *
             std::sin(two_pi * static_cast<double>(config_.force_k) *
                      static_cast<double>(iy) /
                      static_cast<double>(config_.ny));
        jx += 0.5 * fx;  // Guo half-force velocity shift
      }
      const double ux = jx * inv_rho;
      const double uy = jy * inv_rho;
      equilibrium(rho, ux, uy, feq);

      double alpha = 2.0;
      if (entropic) {
        double rel = 0.0;
        for (int i = 0; i < kQ; ++i) {
          delta[i] = feq[i] - fi[i];
          rel = std::max(rel, std::abs(delta[i]) / fi[i]);
        }
        if (rel > kEntropicFastPathThreshold) {
          alpha = solve_alpha(fi, delta);
          ++local_newton;
          local_min = std::min(local_min, alpha);
          local_max = std::max(local_max, alpha);
        }
      } else {
        for (int i = 0; i < kQ; ++i) delta[i] = feq[i] - fi[i];
      }

      const double relax = alpha * beta;
      for (int i = 0; i < kQ; ++i) {
        f_[static_cast<std::size_t>(i * cells_ + c)] = fi[i] + relax * delta[i];
      }
      if (forced) {
        // Guo forcing source: Sᵢ = (1 − relax/2)·wᵢ·[(c−u)/c_s² +
        // (c·u)c/c_s⁴]·F with F = (fx, 0).
        const double pref = 1.0 - 0.5 * relax;
        for (int i = 0; i < kQ; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          const double cx = kCx[ui], cy = kCy[ui];
          const double cu = cx * ux + cy * uy;
          const double term =
              ((cx - ux) / kCs2 + cu * cx / (kCs2 * kCs2)) * fx;
          f_[static_cast<std::size_t>(i * cells_ + c)] +=
              pref * kWeights[ui] * term;
        }
      }
    }
    if (entropic) {
      std::lock_guard lock(stats_mutex);
      step_stats.alpha_min = std::min(step_stats.alpha_min, local_min);
      step_stats.alpha_max = std::max(step_stats.alpha_max, local_max);
      step_stats.newton_cells += local_newton;
    }
  });
  stats_ = step_stats;
}

void LbmSolver::stream() {
  const index_t nx = config_.nx, ny = config_.ny;
  parallel_for(0, static_cast<index_t>(kQ) * ny, [&](index_t t) {
    const int i = static_cast<int>(t / ny);
    const index_t y = t % ny;
    const int cx = kCx[static_cast<std::size_t>(i)];
    const int cy = kCy[static_cast<std::size_t>(i)];
    const index_t yd = (y + cy + ny) % ny;
    const double* src = f_.data() + static_cast<std::size_t>(i * cells_ + y * nx);
    double* dst = f_post_.data() + static_cast<std::size_t>(i * cells_ + yd * nx);
    if (cx == 0) {
      std::copy_n(src, nx, dst);
    } else if (cx == 1) {
      // dst[(x+1) mod nx] = src[x]
      std::copy_n(src, nx - 1, dst + 1);
      dst[0] = src[nx - 1];
    } else {
      std::copy_n(src + 1, nx - 1, dst);
      dst[nx - 1] = src[0];
    }
  });
  f_.swap(f_post_);
}

void LbmSolver::step(index_t steps) {
  static obs::TimerStat& collide_span = obs::timer("lbm/collide");
  static obs::TimerStat& stream_span = obs::timer("lbm/stream");
  static obs::Counter& counter = obs::counter("lbm/steps");
  counter.add(steps);
  for (index_t s = 0; s < steps; ++s) {
    {
      obs::ScopedTimer span(collide_span);
      collide();
    }
    {
      obs::ScopedTimer span(stream_span);
      stream();
    }
  }
}

void LbmSolver::initialize(const TensorD& u1, const TensorD& u2) {
  TURB_CHECK(u1.shape() == (Shape{config_.ny, config_.nx}));
  TURB_CHECK(u2.shape() == (Shape{config_.ny, config_.nx}));
  TURB_CHECK_MSG(u1.max_abs() < 0.3 && u2.max_abs() < 0.3,
                 "initial lattice velocity too large (low-Mach limit)");
  parallel_for(0, cells_, [&](index_t c) {
    double feq[kQ];
    equilibrium(1.0, u1[c], u2[c], feq);
    for (int i = 0; i < kQ; ++i) {
      f_[static_cast<std::size_t>(i * cells_ + c)] = feq[i];
    }
  });
}

TensorD LbmSolver::density() const {
  TensorD rho({config_.ny, config_.nx});
  for (index_t c = 0; c < cells_; ++c) {
    double acc = 0.0;
    for (int i = 0; i < kQ; ++i) {
      acc += f_[static_cast<std::size_t>(i * cells_ + c)];
    }
    rho[c] = acc;
  }
  return rho;
}

TensorD LbmSolver::velocity_x() const {
  TensorD u({config_.ny, config_.nx});
  const bool forced = config_.force_amplitude != 0.0;
  const double two_pi = 2.0 * 3.14159265358979323846;
  for (index_t c = 0; c < cells_; ++c) {
    double rho = 0.0, jx = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const double v = f_[static_cast<std::size_t>(i * cells_ + c)];
      rho += v;
      jx += kCx[static_cast<std::size_t>(i)] * v;
    }
    if (forced) {
      // Guo macroscopic velocity includes half the body force.
      const index_t iy = c / config_.nx;
      jx += 0.5 * config_.force_amplitude *
            std::sin(two_pi * static_cast<double>(config_.force_k) *
                     static_cast<double>(iy) /
                     static_cast<double>(config_.ny));
    }
    u[c] = jx / rho;
  }
  return u;
}

TensorD LbmSolver::velocity_y() const {
  TensorD u({config_.ny, config_.nx});
  for (index_t c = 0; c < cells_; ++c) {
    double rho = 0.0, jy = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const double v = f_[static_cast<std::size_t>(i * cells_ + c)];
      rho += v;
      jy += kCy[static_cast<std::size_t>(i)] * v;
    }
    u[c] = jy / rho;
  }
  return u;
}

double LbmSolver::kinetic_energy() const {
  double ke = 0.0;
  for (index_t c = 0; c < cells_; ++c) {
    double rho = 0.0, jx = 0.0, jy = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const double v = f_[static_cast<std::size_t>(i * cells_ + c)];
      rho += v;
      jx += kCx[static_cast<std::size_t>(i)] * v;
      jy += kCy[static_cast<std::size_t>(i)] * v;
    }
    ke += 0.5 * (jx * jx + jy * jy) / rho;
  }
  return ke;
}

double LbmSolver::total_mass() const {
  double m = 0.0;
  for (const double v : f_) m += v;
  return m;
}

bool LbmSolver::has_blown_up() const {
  for (const double v : f_) {
    if (!std::isfinite(v) || v <= 0.0) return true;
  }
  return false;
}

}  // namespace turb::lbm
