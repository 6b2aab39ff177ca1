// The gradient pass of the planned spectral step (DESIGN.md "Planned PDE
// step"): from one vorticity spectrum ŵ, the spectra of the velocity and
// of the vorticity gradient that the step's inverse transforms read.
#pragma once

#include <complex>

#include "util/common.hpp"

namespace turb::ns {

/// Writes four consecutive (n, n/2+1) planes into `grad`:
///
///   û₁ = i·ky·ψ̂,  û₂ = −i·kx·ψ̂,  ω̂ₓ = i·kx·ŵ,  ω̂ᵧ = i·ky·ŵ,
///   ψ̂ = ŵ / k² (k² = kx² + ky²), and ψ̂ = 0 where k² = 0,
///
/// from `what` (one (n, n/2+1) spectrum), `kx` (n/2+1 column wavenumbers)
/// and `ky` (n row wavenumbers). The bits are those of the pinned
/// std::complex loop
///
///   psi = (k2 == 0) ? 0 : w / k2;   u1 = complex(0, ky) * psi; ...
///
/// for every input. The scalar tier runs that loop. The avx2 tier runs the
/// fast path of GCC's complex product as plain IEEE operations,
/// (0·zr − b·zi, 0·zi + b·zr), with no FMA, two complex per ymm, and the
/// pinned expression on each row's odd last column. GCC's product leaves
/// its fast path (for __muldc3) only when both parts are NaN, so if any
/// lane output holds a NaN the whole call is recomputed by the pinned loop
/// and the counter `ns/grad_fallbacks` counts one call.
void spectral_gradients(const std::complex<double>* what, const double* kx,
                        const double* ky, index_t n,
                        std::complex<double>* grad);

}  // namespace turb::ns
