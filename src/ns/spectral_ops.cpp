#include "ns/spectral_ops.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "fft/fftnd.hpp"

namespace turb::ns {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

using SpecD = Tensor<std::complex<double>>;

void check_field(const TensorD& f) {
  TURB_CHECK_MSG(f.rank() == 2, "expected a (ny, nx) field");
  TURB_CHECK(f.dim(0) >= 4 && f.dim(1) >= 4);
}

}  // namespace

TensorD derivative_x(const TensorD& f) {
  check_field(f);
  const index_t ny = f.dim(0), nx = f.dim(1);
  SpecD fh = fft::rfftn(f, 2);
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx / 2 + 1; ++ix) {
      fh(iy, ix) *= std::complex<double>(0.0, kTwoPi * deriv_freq(ix, nx));
    }
  }
  return fft::irfftn(fh, 2, nx);
}

TensorD derivative_y(const TensorD& f) {
  check_field(f);
  const index_t ny = f.dim(0), nx = f.dim(1);
  SpecD fh = fft::rfftn(f, 2);
  for (index_t iy = 0; iy < ny; ++iy) {
    const std::complex<double> iky(0.0, kTwoPi * deriv_freq(iy, ny));
    for (index_t ix = 0; ix < nx / 2 + 1; ++ix) {
      fh(iy, ix) *= iky;
    }
  }
  return fft::irfftn(fh, 2, nx);
}

TensorD vorticity_from_velocity(const TensorD& u1, const TensorD& u2) {
  TensorD w = derivative_x(u2);
  w -= derivative_y(u1);
  return w;
}

TensorD divergence(const TensorD& u1, const TensorD& u2) {
  TensorD d = derivative_x(u1);
  d += derivative_y(u2);
  return d;
}

void velocity_from_vorticity(const TensorD& omega, TensorD& u1, TensorD& u2) {
  check_field(omega);
  const index_t ny = omega.dim(0), nx = omega.dim(1);
  SpecD wh = fft::rfftn(omega, 2);
  SpecD u1h({ny, nx / 2 + 1}), u2h({ny, nx / 2 + 1});
  for (index_t iy = 0; iy < ny; ++iy) {
    const double ky = kTwoPi * deriv_freq(iy, ny);
    for (index_t ix = 0; ix < nx / 2 + 1; ++ix) {
      const double kx = kTwoPi * deriv_freq(ix, nx);
      const double k2 = kx * kx + ky * ky;
      if (k2 == 0.0) {
        // Mean mode and Nyquist modes carry no recoverable velocity.
        u1h(iy, ix) = 0.0;
        u2h(iy, ix) = 0.0;
        continue;
      }
      // ψ̂ = ω̂/k²; û₁ = i k_y ψ̂, û₂ = −i k_x ψ̂.
      const std::complex<double> psi = wh(iy, ix) / k2;
      u1h(iy, ix) = std::complex<double>(0.0, ky) * psi;
      u2h(iy, ix) = std::complex<double>(0.0, -kx) * psi;
    }
  }
  u1 = fft::irfftn(u1h, 2, nx);
  u2 = fft::irfftn(u2h, 2, nx);
}

TensorD spectral_upsample(const TensorD& f, index_t factor) {
  check_field(f);
  TURB_CHECK(factor >= 1);
  if (factor == 1) return f;
  const index_t ny = f.dim(0), nx = f.dim(1);
  const index_t fy = ny * factor, fx = nx * factor;
  const SpecD coarse = fft::rfftn(f, 2);
  SpecD fine({fy, fx / 2 + 1});
  const double scale = static_cast<double>(fy) * static_cast<double>(fx) /
                       (static_cast<double>(ny) * static_cast<double>(nx));
  for (index_t iy = 0; iy < ny; ++iy) {
    if (2 * iy == ny) continue;  // drop the ambiguous Nyquist row
    const index_t oy = (iy <= ny / 2) ? iy : iy + (fy - ny);
    for (index_t ix = 0; ix < nx / 2 + 1; ++ix) {
      if (2 * ix == nx) continue;
      fine(oy, ix) = coarse(iy, ix) * scale;
    }
  }
  return fft::irfftn(fine, 2, fx);
}

std::vector<double> energy_spectrum(const TensorD& u1, const TensorD& u2) {
  check_field(u1);
  TURB_CHECK(u1.shape() == u2.shape());
  const index_t ny = u1.dim(0), nx = u1.dim(1);
  const SpecD u1h = fft::rfftn(u1, 2);
  const SpecD u2h = fft::rfftn(u2, 2);
  const double norm = static_cast<double>(nx) * static_cast<double>(ny);
  const index_t kmax = std::min(nx, ny) / 2;
  std::vector<double> spectrum(static_cast<std::size_t>(kmax + 1), 0.0);
  for (index_t iy = 0; iy < ny; ++iy) {
    const double ky = fft_freq(iy, ny);
    for (index_t ix = 0; ix < nx / 2 + 1; ++ix) {
      const double kx = static_cast<double>(ix);
      const index_t shell =
          static_cast<index_t>(std::lround(std::sqrt(kx * kx + ky * ky)));
      if (shell > kmax) continue;
      // rfft stores one of each Hermitian pair for interior kx columns.
      const double mult = (ix == 0 || ix == nx / 2) ? 1.0 : 2.0;
      const double e = 0.5 * mult *
                       (std::norm(u1h(iy, ix)) + std::norm(u2h(iy, ix))) /
                       (norm * norm);
      spectrum[static_cast<std::size_t>(shell)] += e;
    }
  }
  return spectrum;
}

}  // namespace turb::ns
