// Spectral differential operators on periodic [0,1)² grids.
//
// Used by the Navier–Stokes solver's state I/O (NsSolver::set_velocity's
// vorticity, NsSolver::velocity's Biot–Savart readback) and by the
// analysis module (vorticity/divergence of predicted velocity fields). The
// spectral solver's RK4 step does not call these operators: it plans its
// own wavenumber, 1/k², ν·k² and dealias tables from fft_freq / deriv_freq
// once per grid (DESIGN.md "Planned PDE step").
// Wavenumbers are 2π·m for integer mode m; fields are (ny, nx) double
// tensors.
#pragma once

#include <complex>

#include "tensor/tensor.hpp"

namespace turb::ns {

/// Signed integer frequency for index i of an n-point axis.
inline double fft_freq(index_t i, index_t n) {
  return (i <= n / 2) ? static_cast<double>(i)
                      : static_cast<double>(i) - static_cast<double>(n);
}

/// Frequency used by derivative-like operators: the Nyquist mode (whose
/// wavevector sign is ambiguous on an even grid) is treated as derivative-
/// free, the standard pseudo-spectral convention. Without this, an odd
/// derivative (or a product like kx·ky) breaks Hermitian symmetry at
/// k = ±N/2 and the real inverse transform silently discards the
/// inconsistency.
inline double deriv_freq(index_t i, index_t n) {
  return (2 * i == n) ? 0.0 : fft_freq(i, n);
}

/// Spectral x-derivative ∂f/∂x.
TensorD derivative_x(const TensorD& f);

/// Spectral y-derivative ∂f/∂y.
TensorD derivative_y(const TensorD& f);

/// Vorticity ω = ∂u₂/∂x − ∂u₁/∂y.
TensorD vorticity_from_velocity(const TensorD& u1, const TensorD& u2);

/// Divergence ∇·u = ∂u₁/∂x + ∂u₂/∂y (≈0 for incompressible fields).
TensorD divergence(const TensorD& u1, const TensorD& u2);

/// Invert ∇²ψ = −ω with zero-mean ψ, then u = (∂ψ/∂y, −∂ψ/∂x).
/// This is the Biot–Savart reconstruction of an incompressible velocity
/// field from its vorticity.
void velocity_from_vorticity(const TensorD& omega, TensorD& u1, TensorD& u2);

/// Spectrally exact upsampling by an integer factor (Fourier zero-padding).
/// Nyquist modes of the coarse grid are dropped (sign-ambiguous). The result
/// interpolates the input at the original collocation points.
TensorD spectral_upsample(const TensorD& f, index_t factor);

/// Isotropic energy spectrum E(k) binned over integer shells k = 0..n/2.
/// Input is a velocity pair; output vector index is the shell number.
std::vector<double> energy_spectrum(const TensorD& u1, const TensorD& u2);

}  // namespace turb::ns
