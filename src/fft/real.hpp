// Real ↔ complex transforms of contiguous rows via the half-length complex
// FFT trick.
//
// rfft maps n reals to n/2+1 complex coefficients (non-negative
// frequencies); irfft inverts with the 1/n normalisation so that
// irfft(rfft(x)) == x. Lengths must be even (all grids and the temporal
// window length used in this library are even).
//
// The unpack twiddles e^(±2πik/n) are read from a caller-provided table so
// the inference engine can compute them once at plan time; the Tensor
// transforms fill one per call. Both reach the row cores below through the
// line drivers (fft/fftnd.hpp), on identical table values, so their outputs
// are bitwise identical by construction.
//
// The row cores dispatch per call on util::active_isa(): the scalar tier
// runs the reference loops of rfft_scratch / irfft_scratch row by row, the
// AVX2/FMA tier the lane kernels of fft/kernels_avx2.hpp at any lane count
// from 1 to kMaxLanes, so a lone row is a one-lane batch. Dispatch sits
// inside the shared instantiation, so the training/engine bitwise identity
// above holds under either ISA.
#pragma once

#include <complex>
#include <cstdint>
#include <numbers>
#include <type_traits>

#include "fft/kernels_avx2.hpp"
#include "fft/plan_cache.hpp"
#include "util/common.hpp"
#include "util/isa.hpp"

namespace turb::fft {

/// Fill `tw` (n/2+1 entries) with the rfft unpack twiddles
/// tw[k] = e^(-2πik/n) — the exact expressions rfft historically evaluated
/// inline per bin, so precomputed tables reproduce the same values.
template <typename T>
void fill_rfft_twiddles(std::complex<T>* tw, index_t n) {
  const index_t h = n / 2;
  for (index_t k = 0; k <= h; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n);
    tw[k] = std::complex<T>(static_cast<T>(std::cos(ang)),
                            static_cast<T>(std::sin(ang)));
  }
}

/// Fill `tw` (n/2 entries) with the irfft pack twiddles tw[k] = e^(2πik/n).
template <typename T>
void fill_irfft_twiddles(std::complex<T>* tw, index_t n) {
  const index_t h = n / 2;
  for (index_t k = 0; k < h; ++k) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n);
    tw[k] = std::complex<T>(static_cast<T>(std::cos(ang)),
                            static_cast<T>(std::sin(ang)));
  }
}

/// Scalar reference rfft of one row, with caller-provided scratch `z` (n/2
/// elements) and twiddle table `tw` (n/2+1 elements, see
/// fill_rfft_twiddles). `keep_bins` (optional, length n/2+1) marks the
/// output bins the caller will read; unmarked bins are skipped and their
/// slots left untouched. Each bin's unpack is an independent function of
/// the shared half-length complex FFT, so skipping a bin cannot perturb any
/// other bin and the kept bins stay bitwise identical to the unmasked
/// transform.
template <typename T>
void rfft_scratch(const T* in, std::complex<T>* out, index_t n,
                  const std::uint8_t* keep_bins, std::complex<T>* z,
                  const std::complex<T>* tw) {
  using cpx = std::complex<T>;
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "rfft length must be even, got " << n);
  const index_t h = n / 2;
  for (index_t k = 0; k < h; ++k) {
    z[k] = cpx(in[2 * k], in[2 * k + 1]);
  }
  plan<T>(h).forward(z);
  for (index_t k = 0; k <= h; ++k) {
    if (keep_bins != nullptr && keep_bins[k] == 0) continue;
    const cpx zk = z[k % h];
    const cpx zc = std::conj(z[(h - k) % h]);
    const cpx e = (zk + zc) * T{0.5};
    // O_k = (zk - zc) / (2i) = -i/2 * (zk - zc)
    const cpx d = zk - zc;
    const cpx o(T{0.5} * d.imag(), T{-0.5} * d.real());
    const cpx w = tw[k];
    out[k] = e + w * o;
  }
}

/// Scalar reference irfft of one row (1/n scaling): `in` holds n/2+1
/// elements, the non-negative-frequency half of a Hermitian spectrum.
/// Caller-provided scratch `z` (n/2 elements) and twiddle table `tw` (n/2
/// elements, see fill_irfft_twiddles).
template <typename T>
void irfft_scratch(const std::complex<T>* in, T* out, index_t n,
                   std::complex<T>* z, const std::complex<T>* tw) {
  using cpx = std::complex<T>;
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "irfft length must be even, got " << n);
  const index_t h = n / 2;
  for (index_t k = 0; k < h; ++k) {
    // The DC and Nyquist coefficients of a real signal are real; like cuFFT's
    // C2R, ignore any imaginary part there so the transform is exactly the
    // Hermitian-symmetric inverse (this makes the spectral-conv backward pass
    // an exact adjoint even when upstream produces non-Hermitian spectra).
    const cpx xk = (k == 0) ? cpx(in[0].real(), T{}) : in[k];
    const cpx xc = (k == 0) ? cpx(in[h].real(), T{})
                            : std::conj(in[h - k]);
    const cpx e = (xk + xc) * T{0.5};
    const cpx d = (xk - xc) * T{0.5};
    const cpx w = tw[k];
    const cpx o = d * w;
    // Z_k = E_k + i O_k
    z[k] = cpx(e.real() - o.imag(), e.imag() + o.real());
  }
  plan<T>(h).inverse(z);
  for (index_t k = 0; k < h; ++k) {
    out[2 * k] = z[k].real();
    out[2 * k + 1] = z[k].imag();
  }
}

/// Lane-batched rfft over `nl` rows (nl in [1, kMaxLanes]): input row l at
/// in + l*in_stride, output row l at out + l*out_stride. z_li (n/2 · nl) and
/// u_li ((n/2+1) · nl) are caller-provided lane-interleaved scratch; tw is
/// the fill_rfft_twiddles table. Bins masked out by keep_bins are skipped
/// and their output slots left untouched (see rfft_scratch). On the AVX2
/// tier the gather/scatter are exact copies and the transform/unpack run
/// intrinsics lane kernels with fixed per-lane arithmetic, so a row's bits
/// do not depend on nl; on the scalar tier the rows (already contiguous) run
/// rfft_scratch one at a time — no compiler-generated per-lane FP loops
/// anywhere (see fft/plan.hpp on batch occupancy invariance).
template <typename T>
void rfft_batch_scratch(const T* in, index_t in_stride, std::complex<T>* out,
                        index_t out_stride, index_t n, index_t nl,
                        const std::uint8_t* keep_bins, std::complex<T>* z_li,
                        std::complex<T>* u_li, const std::complex<T>* tw) {
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "rfft length must be even, got " << n);
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    if (util::active_isa() == util::Isa::kAvx2) {
      using cpx = std::complex<T>;
      const index_t h = n / 2;
      for (index_t l = 0; l < nl; ++l) {
        const T* row = in + l * in_stride;
        for (index_t k = 0; k < h; ++k) {
          z_li[k * nl + l] = cpx(row[2 * k], row[2 * k + 1]);
        }
      }
      plan<T>(h).forward_batch(z_li, z_li, nl, nl);
      avx2::rfft_unpack_lanes(z_li, u_li, h, keep_bins, tw, nl);
      for (index_t l = 0; l < nl; ++l) {
        cpx* orow = out + l * out_stride;
        for (index_t k = 0; k <= h; ++k) {
          if (keep_bins != nullptr && keep_bins[k] == 0) continue;
          orow[k] = u_li[k * nl + l];
        }
      }
      return;
    }
  }
#endif
  // Scalar tier: z_li's first n/2 slots serve as the per-row scratch. The
  // batch still amortises the caller's twiddle fill and chunk bookkeeping.
  (void)u_li;
  for (index_t l = 0; l < nl; ++l) {
    rfft_scratch(in + l * in_stride, out + l * out_stride, n, keep_bins, z_li,
                 tw);
  }
}

/// Lane-batched irfft over `nl` rows (nl in [1, kMaxLanes]): spectrum row l
/// at in + l*in_stride (n/2+1 elements), real output row l at
/// out + l*out_stride. u_li holds (n/2+1) · nl and z_li n/2 · nl
/// lane-interleaved scratch; tw is the fill_irfft_twiddles table. Tiers as
/// rfft_batch_scratch.
template <typename T>
void irfft_batch_scratch(const std::complex<T>* in, index_t in_stride, T* out,
                         index_t out_stride, index_t n, index_t nl,
                         std::complex<T>* z_li, std::complex<T>* u_li,
                         const std::complex<T>* tw) {
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "irfft length must be even, got " << n);
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    if (util::active_isa() == util::Isa::kAvx2) {
      using cpx = std::complex<T>;
      const index_t h = n / 2;
      for (index_t l = 0; l < nl; ++l) {
        const cpx* row = in + l * in_stride;
        for (index_t k = 0; k <= h; ++k) u_li[k * nl + l] = row[k];
      }
      avx2::irfft_pack_lanes(u_li, z_li, h, tw, nl);
      plan<T>(h).inverse_batch(z_li, z_li, nl, nl);
      for (index_t l = 0; l < nl; ++l) {
        T* orow = out + l * out_stride;
        for (index_t k = 0; k < h; ++k) {
          orow[2 * k] = z_li[k * nl + l].real();
          orow[2 * k + 1] = z_li[k * nl + l].imag();
        }
      }
      return;
    }
  }
#endif
  // Scalar tier: irfft_scratch per row (see rfft_batch_scratch).
  (void)u_li;
  for (index_t l = 0; l < nl; ++l) {
    irfft_scratch(in + l * in_stride, out + l * out_stride, n, z_li, tw);
  }
}

}  // namespace turb::fft
