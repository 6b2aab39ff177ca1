#include "ns/gradient.hpp"

#include "obs/obs.hpp"
#include "util/avx2.hpp"
#include "util/isa.hpp"

namespace turb::ns {

namespace {

using cpx = std::complex<double>;

/// One element of the gradient loop as it was written before the lane
/// kernel, kept verbatim: its complex products are GCC's, __muldc3 branch
/// included. `i` is the element's index in each of the four planes.
inline void pinned_element(const cpx* what, double kx, double ky, index_t i,
                           index_t plane, cpx* grad) {
  const double k2 = kx * kx + ky * ky;
  const cpx w = what[i];
  const cpx psi = (k2 == 0.0) ? 0.0 : w / k2;
  grad[i] = cpx(0.0, ky) * psi;
  grad[plane + i] = cpx(0.0, -kx) * psi;
  grad[2 * plane + i] = cpx(0.0, kx) * w;
  grad[3 * plane + i] = cpx(0.0, ky) * w;
}

/// The pinned loop: the scalar tier, and the avx2 tier's fallback.
void pinned_gradients(const cpx* what, const double* kx, const double* ky,
                      index_t n, cpx* grad) {
  const index_t nxr = n / 2 + 1;
  const index_t plane = n * nxr;
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < nxr; ++ix) {
      pinned_element(what, kx[ix], ky[iy], iy * nxr + ix, plane, grad);
    }
  }
}

#if defined(TURBFNO_HAS_AVX2_KERNELS)

// Two complex per register, [re0, im0, re1, im1]. complex(0, b)·z is
// addsub(0·z, b·swap(z)) = (0·zr − b·zi, 0·zi + b·zr): the multiplies, adds
// and subtracts of the fast path of GCC's product, each correctly rounded
// in a lane as in a scalar register, and no FMA.
[[gnu::target("avx2")]] inline __m256d times_i_avx2(__m256d b, __m256d z) {
  return _mm256_addsub_pd(_mm256_mul_pd(_mm256_setzero_pd(), z),
                          _mm256_mul_pd(b, _mm256_permute_pd(z, 0x5)));
}

/// The lanes over each row's whole pairs, the pinned expression on its odd
/// last column. Returns whether a lane output holds a NaN.
[[gnu::target("avx2")]] bool gradients_avx2(const cpx* what, const double* kx,
                                            const double* ky, index_t n,
                                            cpx* grad) {
  const index_t nxr = n / 2 + 1;
  const index_t plane = n * nxr;
  const index_t full = nxr - nxr % 2;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d nan = zero;
  for (index_t iy = 0; iy < n; ++iy) {
    const index_t row = iy * nxr;
    const __m256d vky = _mm256_set1_pd(ky[iy]);
    const __m256d ky2 = _mm256_mul_pd(vky, vky);
    const double* w_row = reinterpret_cast<const double*>(what + row);
    double* g = reinterpret_cast<double*>(grad + row);
    for (index_t ix = 0; ix < full; ix += 2) {
      // [kx0, kx0, kx1, kx1]: each column's wavenumber for both parts.
      const __m256d vkx = _mm256_permute4x64_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(kx + ix)), 0x50);
      const __m256d k2 = _mm256_add_pd(_mm256_mul_pd(vkx, vkx), ky2);
      const __m256d w = _mm256_loadu_pd(w_row + 2 * ix);
      // ψ = w / k2, selected to +0 where k2 == 0 (an exact select).
      const __m256d psi = _mm256_andnot_pd(
          _mm256_cmp_pd(k2, zero, _CMP_EQ_OQ), _mm256_div_pd(w, k2));
      const __m256d u1 = times_i_avx2(vky, psi);
      const __m256d u2 = times_i_avx2(_mm256_xor_pd(vkx, sign), psi);
      const __m256d wx = times_i_avx2(vkx, w);
      const __m256d wy = times_i_avx2(vky, w);
      _mm256_storeu_pd(g + 2 * ix, u1);
      _mm256_storeu_pd(g + 2 * (plane + ix), u2);
      _mm256_storeu_pd(g + 2 * (2 * plane + ix), wx);
      _mm256_storeu_pd(g + 2 * (3 * plane + ix), wy);
      nan = _mm256_or_pd(nan, _mm256_cmp_pd(u1, u2, _CMP_UNORD_Q));
      nan = _mm256_or_pd(nan, _mm256_cmp_pd(wx, wy, _CMP_UNORD_Q));
    }
    // The odd column of the row tail: the pinned expression itself.
    if (full < nxr) {
      pinned_element(what, kx[full], ky[iy], row + full, plane, grad);
    }
  }
  return _mm256_movemask_pd(nan) != 0;
}

#endif  // TURBFNO_HAS_AVX2_KERNELS

}  // namespace

void spectral_gradients(const cpx* what, const double* kx, const double* ky,
                        index_t n, cpx* grad) {
  static obs::Counter& fallbacks = obs::counter("ns/grad_fallbacks");
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if (util::active_isa() == util::Isa::kAvx2) {
    if (!gradients_avx2(what, kx, ky, n, grad)) return;
    fallbacks.add();
  }
#endif
  pinned_gradients(what, kx, ky, n, grad);
}

}  // namespace turb::ns
