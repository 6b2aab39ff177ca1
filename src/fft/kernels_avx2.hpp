// AVX2/FMA kernels for the radix-2 butterfly stages (fft/plan.hpp) and the
// rfft/irfft half-length unpack loops (fft/real.hpp), behind util::isa
// runtime dispatch.
//
// Per-function target attributes keep the including TUs portable; callers
// must only reach these when util::active_isa() == Isa::kAvx2 (which implies
// CPUID AVX2+FMA). Complex data is interleaved [re, im] in memory, so a
// 256-bit register holds 4 float or 2 double complex values; complex
// products use the moveldup/movehdup (movedup/permute for doubles) broadcast
// plus fmaddsub — the fused rounding is what separates these kernels from
// the scalar reference by a few ulp (Tier B in util/isa.hpp; bounds tested
// in tests/test_isa.cpp).
//
// Determinism notes (Tier A, within avx2):
//
//   * Butterflies: each stage reads a contiguous per-stage twiddle table
//     (bitwise the same values as the strided twiddle_[j*step] reads of the
//     scalar path) and every (base, j) butterfly touches only its own pair,
//     so results are independent of threading (plans already run per line)
//     and identical for every caller of the same plan.
//   * Stage pairs: the lane-batched path runs two consecutive stages per
//     pass (radix2_pair_lanes). Each butterfly keeps its inputs, twiddle,
//     expression (butterfly_lanes, shared with radix2_stage_lanes) and
//     stage order; only the rows' round trip to memory between the two
//     stages is gone, so a pair has the bits of two single stages.
//   * rfft unpack: every bin k in [1, h-1] is computed by the same code
//     regardless of the ModeMask — the vector body evaluates all lanes and
//     _mm256_maskstore writes only the kept bins, leaving skipped slots
//     untouched. Pruned and full transforms therefore stay bitwise
//     identical on the kept bins, the same load-bearing property the scalar
//     path has.
//   * Stages/bins too narrow for a full vector (half < 4 floats, edge bins
//     0 and h, tail bins near h) run an in-function scalar loop; they are
//     part of the avx2 kernel's fixed operation order, not a dispatch
//     decision.
//   * Canonical fused arithmetic: every complex product on the avx2 tier —
//     vector bodies and in-kernel scalar edges alike — rounds as
//     re = fl(a·c − fl(b·d)), im = fl(a·d + fl(b·c)) (fmaddsub in vector
//     code, cmul_fused below in scalar code). This makes a value's bits
//     independent of which code shape computed it, which is what lets the
//     lane-batched kernels (element j of lane l at x[j*stride + l], same
//     broadcast twiddle for every lane) reproduce the within-line kernels
//     bit-for-bit on full batches, ragged lane tails, in-place column runs
//     and single lines.
#pragma once

#include <bit>
#include <complex>
#include <cstdint>

#include "util/common.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define TURBFNO_HAS_AVX2_KERNELS 1

#include <immintrin.h>

namespace turb::fft::avx2 {

// Scalar complex product with the exact rounding of the vector
// _mm256_fmaddsub bodies; `a` is the operand the vector code splits into
// broadcast re/im halves (the twiddle in butterflies/unpack, d in pack).
[[gnu::target("avx2,fma")]] inline std::complex<float> cmul_fused(
    std::complex<float> a, std::complex<float> b) {
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.real(), b.imag(), a.imag() * b.real())};
}

[[gnu::target("avx2,fma")]] inline std::complex<double> cmul_fused(
    std::complex<double> a, std::complex<double> b) {
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.real(), b.imag(), a.imag() * b.real())};
}

// ---- Radix-2 butterfly stage ----------------------------------------------
//
// One Cooley–Tukey stage of width `len` over the whole length-n array:
//   u = x[base+j]; v = x[base+j+half] * w_j;  x[base+j] = u + v;
//   x[base+j+half] = u - v;   with w_j = tw[j] (conjugated when inverse).

[[gnu::target("avx2,fma")]] inline void radix2_stage(
    std::complex<float>* x, index_t n, index_t len,
    const std::complex<float>* tw, bool inverse) {
  const index_t half = len / 2;
  if (half < 4) {
    for (index_t base = 0; base < n; base += len) {
      for (index_t j = 0; j < half; ++j) {
        std::complex<float> w = tw[j];
        if (inverse) w = std::conj(w);
        const std::complex<float> u = x[base + j];
        const std::complex<float> v = cmul_fused(w, x[base + j + half]);
        x[base + j] = u + v;
        x[base + j + half] = u - v;
      }
    }
    return;
  }
  const __m256 conj_mask = _mm256_castsi256_ps(_mm256_setr_epi32(
      0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN));
  float* xf = reinterpret_cast<float*>(x);
  const float* twf = reinterpret_cast<const float*>(tw);
  for (index_t base = 0; base < n; base += len) {
    float* top = xf + 2 * base;
    float* bot = top + 2 * half;
    for (index_t j = 0; j + 4 <= half; j += 4) {
      __m256 w = _mm256_loadu_ps(twf + 2 * j);
      if (inverse) w = _mm256_xor_ps(w, conj_mask);
      const __m256 u = _mm256_loadu_ps(top + 2 * j);
      const __m256 vin = _mm256_loadu_ps(bot + 2 * j);
      // v = vin * w (complex): re = wr·vr − wi·vi, im = wr·vi + wi·vr.
      const __m256 wr = _mm256_moveldup_ps(w);
      const __m256 wi = _mm256_movehdup_ps(w);
      const __m256 vs = _mm256_permute_ps(vin, 0xB1);  // [vi, vr] pairs
      const __m256 v = _mm256_fmaddsub_ps(wr, vin, _mm256_mul_ps(wi, vs));
      _mm256_storeu_ps(top + 2 * j, _mm256_add_ps(u, v));
      _mm256_storeu_ps(bot + 2 * j, _mm256_sub_ps(u, v));
    }
  }
}

[[gnu::target("avx2,fma")]] inline void radix2_stage(
    std::complex<double>* x, index_t n, index_t len,
    const std::complex<double>* tw, bool inverse) {
  const index_t half = len / 2;
  if (half < 2) {
    for (index_t base = 0; base < n; base += len) {
      // half == 1: w = tw[0] = (1, ∓0), every product is exact so fused and
      // plain rounding coincide; cmul_fused keeps the tier uniform.
      const std::complex<double> u = x[base];
      std::complex<double> w = tw[0];
      if (inverse) w = std::conj(w);
      const std::complex<double> v = cmul_fused(w, x[base + 1]);
      x[base] = u + v;
      x[base + 1] = u - v;
    }
    return;
  }
  const __m256d conj_mask = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0, INT64_MIN, 0, INT64_MIN));
  double* xd = reinterpret_cast<double*>(x);
  const double* twd = reinterpret_cast<const double*>(tw);
  for (index_t base = 0; base < n; base += len) {
    double* top = xd + 2 * base;
    double* bot = top + 2 * half;
    for (index_t j = 0; j + 2 <= half; j += 2) {
      __m256d w = _mm256_loadu_pd(twd + 2 * j);
      if (inverse) w = _mm256_xor_pd(w, conj_mask);
      const __m256d u = _mm256_loadu_pd(top + 2 * j);
      const __m256d vin = _mm256_loadu_pd(bot + 2 * j);
      const __m256d wr = _mm256_movedup_pd(w);
      const __m256d wi = _mm256_permute_pd(w, 0xF);    // [im, im] per pair
      const __m256d vs = _mm256_permute_pd(vin, 0x5);  // [vi, vr] per pair
      const __m256d v = _mm256_fmaddsub_pd(wr, vin, _mm256_mul_pd(wi, vs));
      _mm256_storeu_pd(top + 2 * j, _mm256_add_pd(u, v));
      _mm256_storeu_pd(bot + 2 * j, _mm256_sub_pd(u, v));
    }
  }
}

// ---- rfft unpack ----------------------------------------------------------
//
// out[k] = E_k + w_k · O_k from the half-length spectrum z (h = n/2):
//   zk = z[k % h]; zc = conj(z[(h−k) % h]); E = (zk+zc)/2;
//   O = −i/2·(zk−zc); w = tw[k].
// Bins masked out by keep (ModeMask) are computed but not stored.

[[gnu::target("avx2,fma")]] inline void rfft_unpack(
    const std::complex<float>* z, std::complex<float>* out, index_t h,
    const std::uint8_t* keep, const std::complex<float>* tw) {
  using cpx = std::complex<float>;
  const auto scalar_bin = [&](index_t k) {
    if (keep != nullptr && keep[k] == 0) return;
    const cpx zk = z[k % h];
    const cpx zc = std::conj(z[(h - k) % h]);
    const cpx e = (zk + zc) * 0.5f;
    const cpx d = zk - zc;
    const cpx o(0.5f * d.imag(), -0.5f * d.real());
    out[k] = e + cmul_fused(tw[k], o);
  };
  scalar_bin(0);
  const __m256 conj_mask = _mm256_castsi256_ps(_mm256_setr_epi32(
      0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN));
  const __m256 half_ps = _mm256_set1_ps(0.5f);
  const __m256 half_alt =
      _mm256_setr_ps(0.5f, -0.5f, 0.5f, -0.5f, 0.5f, -0.5f, 0.5f, -0.5f);
  const float* zf = reinterpret_cast<const float*>(z);
  const float* twf = reinterpret_cast<const float*>(tw);
  float* outf = reinterpret_cast<float*>(out);
  index_t k = 1;
  for (; k + 4 <= h; k += 4) {
    const __m256 zk = _mm256_loadu_ps(zf + 2 * k);
    // Mirror bins z[h−k−3 .. h−k], reversed to line up with lanes k..k+3,
    // then conjugated.
    __m256 zc = _mm256_loadu_ps(zf + 2 * (h - k - 3));
    zc = _mm256_permute2f128_ps(zc, zc, 0x01);
    zc = _mm256_permute_ps(zc, 0x4E);
    zc = _mm256_xor_ps(zc, conj_mask);
    const __m256 e = _mm256_mul_ps(_mm256_add_ps(zk, zc), half_ps);
    const __m256 d = _mm256_sub_ps(zk, zc);
    // O = (0.5·d.im, −0.5·d.re)
    const __m256 o = _mm256_mul_ps(_mm256_permute_ps(d, 0xB1), half_alt);
    const __m256 w = _mm256_loadu_ps(twf + 2 * k);
    const __m256 wr = _mm256_moveldup_ps(w);
    const __m256 wi = _mm256_movehdup_ps(w);
    const __m256 os = _mm256_permute_ps(o, 0xB1);
    const __m256 wo = _mm256_fmaddsub_ps(wr, o, _mm256_mul_ps(wi, os));
    const __m256 res = _mm256_add_ps(e, wo);
    if (keep == nullptr) {
      _mm256_storeu_ps(outf + 2 * k, res);
    } else {
      const __m256i mask = _mm256_setr_epi32(
          keep[k] ? -1 : 0, keep[k] ? -1 : 0, keep[k + 1] ? -1 : 0,
          keep[k + 1] ? -1 : 0, keep[k + 2] ? -1 : 0, keep[k + 2] ? -1 : 0,
          keep[k + 3] ? -1 : 0, keep[k + 3] ? -1 : 0);
      _mm256_maskstore_ps(outf + 2 * k, mask, res);
    }
  }
  for (; k <= h; ++k) scalar_bin(k);
}

[[gnu::target("avx2,fma")]] inline void rfft_unpack(
    const std::complex<double>* z, std::complex<double>* out, index_t h,
    const std::uint8_t* keep, const std::complex<double>* tw) {
  using cpx = std::complex<double>;
  const auto scalar_bin = [&](index_t k) {
    if (keep != nullptr && keep[k] == 0) return;
    const cpx zk = z[k % h];
    const cpx zc = std::conj(z[(h - k) % h]);
    const cpx e = (zk + zc) * 0.5;
    const cpx d = zk - zc;
    const cpx o(0.5 * d.imag(), -0.5 * d.real());
    out[k] = e + cmul_fused(tw[k], o);
  };
  scalar_bin(0);
  const __m256d conj_mask = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0, INT64_MIN, 0, INT64_MIN));
  const __m256d half_pd = _mm256_set1_pd(0.5);
  const __m256d half_alt = _mm256_setr_pd(0.5, -0.5, 0.5, -0.5);
  const double* zd = reinterpret_cast<const double*>(z);
  const double* twd = reinterpret_cast<const double*>(tw);
  double* outd = reinterpret_cast<double*>(out);
  index_t k = 1;
  for (; k + 2 <= h; k += 2) {
    const __m256d zk = _mm256_loadu_pd(zd + 2 * k);
    __m256d zc = _mm256_loadu_pd(zd + 2 * (h - k - 1));
    zc = _mm256_permute2f128_pd(zc, zc, 0x01);
    zc = _mm256_xor_pd(zc, conj_mask);
    const __m256d e = _mm256_mul_pd(_mm256_add_pd(zk, zc), half_pd);
    const __m256d d = _mm256_sub_pd(zk, zc);
    const __m256d o = _mm256_mul_pd(_mm256_permute_pd(d, 0x5), half_alt);
    const __m256d w = _mm256_loadu_pd(twd + 2 * k);
    const __m256d wr = _mm256_movedup_pd(w);
    const __m256d wi = _mm256_permute_pd(w, 0xF);
    const __m256d os = _mm256_permute_pd(o, 0x5);
    const __m256d wo = _mm256_fmaddsub_pd(wr, o, _mm256_mul_pd(wi, os));
    const __m256d res = _mm256_add_pd(e, wo);
    if (keep == nullptr) {
      _mm256_storeu_pd(outd + 2 * k, res);
    } else {
      const __m256i mask = _mm256_setr_epi64x(
          keep[k] ? -1 : 0, keep[k] ? -1 : 0, keep[k + 1] ? -1 : 0,
          keep[k + 1] ? -1 : 0);
      _mm256_maskstore_pd(outd + 2 * k, mask, res);
    }
  }
  for (; k <= h; ++k) scalar_bin(k);
}

// ---- irfft pack -----------------------------------------------------------
//
// z[k] = E_k + i·O_k with E = (xk+xc)/2, O = (xk−xc)/2 · w_k,
// xk = in[k], xc = conj(in[h−k]) (DC/Nyquist imaginary parts dropped at
// k = 0, matching the C2R convention of the scalar path).

[[gnu::target("avx2,fma")]] inline void irfft_pack(
    const std::complex<float>* in, std::complex<float>* z, index_t h,
    const std::complex<float>* tw) {
  using cpx = std::complex<float>;
  {
    const cpx xk(in[0].real(), 0.0f);
    const cpx xc(in[h].real(), 0.0f);
    const cpx e = (xk + xc) * 0.5f;
    const cpx d = (xk - xc) * 0.5f;
    const cpx o = cmul_fused(d, tw[0]);
    z[0] = cpx(e.real() - o.imag(), e.imag() + o.real());
  }
  const __m256 conj_mask = _mm256_castsi256_ps(_mm256_setr_epi32(
      0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN));
  const __m256 half_ps = _mm256_set1_ps(0.5f);
  const float* inf = reinterpret_cast<const float*>(in);
  const float* twf = reinterpret_cast<const float*>(tw);
  float* zf = reinterpret_cast<float*>(z);
  index_t k = 1;
  for (; k + 4 <= h; k += 4) {
    const __m256 xk = _mm256_loadu_ps(inf + 2 * k);
    __m256 xc = _mm256_loadu_ps(inf + 2 * (h - k - 3));
    xc = _mm256_permute2f128_ps(xc, xc, 0x01);
    xc = _mm256_permute_ps(xc, 0x4E);
    xc = _mm256_xor_ps(xc, conj_mask);
    const __m256 e = _mm256_mul_ps(_mm256_add_ps(xk, xc), half_ps);
    const __m256 d = _mm256_mul_ps(_mm256_sub_ps(xk, xc), half_ps);
    // o = d * w (complex)
    const __m256 w = _mm256_loadu_ps(twf + 2 * k);
    const __m256 dr = _mm256_moveldup_ps(d);
    const __m256 di = _mm256_movehdup_ps(d);
    const __m256 ws = _mm256_permute_ps(w, 0xB1);
    const __m256 o = _mm256_fmaddsub_ps(dr, w, _mm256_mul_ps(di, ws));
    // z = (e.re − o.im, e.im + o.re)
    const __m256 res = _mm256_addsub_ps(e, _mm256_permute_ps(o, 0xB1));
    _mm256_storeu_ps(zf + 2 * k, res);
  }
  for (; k < h; ++k) {
    const cpx xk = in[k];
    const cpx xc = std::conj(in[h - k]);
    const cpx e = (xk + xc) * 0.5f;
    const cpx d = (xk - xc) * 0.5f;
    const cpx o = cmul_fused(d, tw[k]);
    z[k] = cpx(e.real() - o.imag(), e.imag() + o.real());
  }
}

[[gnu::target("avx2,fma")]] inline void irfft_pack(
    const std::complex<double>* in, std::complex<double>* z, index_t h,
    const std::complex<double>* tw) {
  using cpx = std::complex<double>;
  {
    const cpx xk(in[0].real(), 0.0);
    const cpx xc(in[h].real(), 0.0);
    const cpx e = (xk + xc) * 0.5;
    const cpx d = (xk - xc) * 0.5;
    const cpx o = cmul_fused(d, tw[0]);
    z[0] = cpx(e.real() - o.imag(), e.imag() + o.real());
  }
  const __m256d conj_mask = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0, INT64_MIN, 0, INT64_MIN));
  const __m256d half_pd = _mm256_set1_pd(0.5);
  const double* ind = reinterpret_cast<const double*>(in);
  const double* twd = reinterpret_cast<const double*>(tw);
  double* zd = reinterpret_cast<double*>(z);
  index_t k = 1;
  for (; k + 2 <= h; k += 2) {
    const __m256d xk = _mm256_loadu_pd(ind + 2 * k);
    __m256d xc = _mm256_loadu_pd(ind + 2 * (h - k - 1));
    xc = _mm256_permute2f128_pd(xc, xc, 0x01);
    xc = _mm256_xor_pd(xc, conj_mask);
    const __m256d e = _mm256_mul_pd(_mm256_add_pd(xk, xc), half_pd);
    const __m256d d = _mm256_mul_pd(_mm256_sub_pd(xk, xc), half_pd);
    const __m256d w = _mm256_loadu_pd(twd + 2 * k);
    const __m256d dr = _mm256_movedup_pd(d);
    const __m256d di = _mm256_permute_pd(d, 0xF);
    const __m256d ws = _mm256_permute_pd(w, 0x5);
    const __m256d o = _mm256_fmaddsub_pd(dr, w, _mm256_mul_pd(di, ws));
    const __m256d res = _mm256_addsub_pd(e, _mm256_permute_pd(o, 0x5));
    _mm256_storeu_pd(zd + 2 * k, res);
  }
  for (; k < h; ++k) {
    const cpx xk = in[k];
    const cpx xc = std::conj(in[h - k]);
    const cpx e = (xk + xc) * 0.5;
    const cpx d = (xk - xc) * 0.5;
    const cpx o = cmul_fused(d, tw[k]);
    z[k] = cpx(e.real() - o.imag(), e.imag() + o.real());
  }
}

// ---- Lane-batched kernels -------------------------------------------------
//
// Batched variants over `nl` independent lines held side by side. The rfft
// unpack and irfft pack take a lane-interleaved scratch block (element j of
// lane l at x[j*nl + l]); the butterfly stage takes a row stride, element j
// of lane l at x[j*stride + l], so the same kernel runs a scratch block
// (stride = nl) and a run of adjacent columns of a row-major array
// transformed in place (stride = row length). Each bin/butterfly broadcasts
// its twiddle across lanes and evaluates the same fused expressions as the
// within-line kernels above, vectorizing over lanes (4 f32 / 2 f64 complex
// per register) — so a lane's bits are independent of batch occupancy and
// identical to the single-line avx2 result. Ragged lane tails run one
// masked vector in the butterflies (the masked-off lanes compute on zeros
// and are never stored) and a cmul_fused scalar loop in the unpack/pack.
// PlanC2C::execute_batch runs the butterfly stages as fused pairs
// (radix2_pair_lanes, below), then one radix2_stage_lanes stage when
// log2 n is odd.

// w (conjugated when inverse) as broadcast real and imaginary parts.
[[gnu::target("avx2,fma")]] inline void broadcast_twiddle(
    std::complex<float> w, bool inverse, __m256& wr, __m256& wi) {
  if (inverse) w = std::conj(w);
  wr = _mm256_set1_ps(w.real());
  wi = _mm256_set1_ps(w.imag());
}

[[gnu::target("avx2,fma")]] inline void broadcast_twiddle(
    std::complex<double> w, bool inverse, __m256d& wr, __m256d& wi) {
  if (inverse) w = std::conj(w);
  wr = _mm256_set1_pd(w.real());
  wi = _mm256_set1_pd(w.imag());
}

// One butterfly across lanes: (u, v) ← (u + w·v, u − w·v), with w·v the
// fmaddsub product of the within-line kernels.
[[gnu::target("avx2,fma")]] inline void butterfly_lanes(__m256& u, __m256& v,
                                                       __m256 wr, __m256 wi) {
  const __m256 vs = _mm256_permute_ps(v, 0xB1);
  const __m256 t = _mm256_fmaddsub_ps(wr, v, _mm256_mul_ps(wi, vs));
  v = _mm256_sub_ps(u, t);
  u = _mm256_add_ps(u, t);
}

[[gnu::target("avx2,fma")]] inline void butterfly_lanes(__m256d& u,
                                                       __m256d& v,
                                                       __m256d wr,
                                                       __m256d wi) {
  const __m256d vs = _mm256_permute_pd(v, 0x5);
  const __m256d t = _mm256_fmaddsub_pd(wr, v, _mm256_mul_pd(wi, vs));
  v = _mm256_sub_pd(u, t);
  u = _mm256_add_pd(u, t);
}

[[gnu::target("avx2,fma")]] inline void radix2_stage_lanes(
    std::complex<float>* x, index_t n, index_t len,
    const std::complex<float>* tw, index_t nl, index_t stride, bool inverse) {
  const index_t half = len / 2;
  const index_t full = nl - nl % 4;
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(2 * (nl - full))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  float* xf = reinterpret_cast<float*>(x);
  for (index_t base = 0; base < n; base += len) {
    for (index_t j = 0; j < half; ++j) {
      __m256 wr, wi;
      broadcast_twiddle(tw[j], inverse, wr, wi);
      float* top = xf + 2 * (base + j) * stride;
      float* bot = xf + 2 * (base + j + half) * stride;
      for (index_t l = 0; l < full; l += 4) {
        __m256 u = _mm256_loadu_ps(top + 2 * l);
        __m256 v = _mm256_loadu_ps(bot + 2 * l);
        butterfly_lanes(u, v, wr, wi);
        _mm256_storeu_ps(top + 2 * l, u);
        _mm256_storeu_ps(bot + 2 * l, v);
      }
      if (full < nl) {
        __m256 u = _mm256_maskload_ps(top + 2 * full, tail);
        __m256 v = _mm256_maskload_ps(bot + 2 * full, tail);
        butterfly_lanes(u, v, wr, wi);
        _mm256_maskstore_ps(top + 2 * full, tail, u);
        _mm256_maskstore_ps(bot + 2 * full, tail, v);
      }
    }
  }
}

[[gnu::target("avx2,fma")]] inline void radix2_stage_lanes(
    std::complex<double>* x, index_t n, index_t len,
    const std::complex<double>* tw, index_t nl, index_t stride,
    bool inverse) {
  const index_t half = len / 2;
  const index_t full = nl - nl % 2;
  const __m256i tail = _mm256_setr_epi64x(-1, -1, 0, 0);
  double* xd = reinterpret_cast<double*>(x);
  for (index_t base = 0; base < n; base += len) {
    for (index_t j = 0; j < half; ++j) {
      __m256d wr, wi;
      broadcast_twiddle(tw[j], inverse, wr, wi);
      double* top = xd + 2 * (base + j) * stride;
      double* bot = xd + 2 * (base + j + half) * stride;
      for (index_t l = 0; l < full; l += 2) {
        __m256d u = _mm256_loadu_pd(top + 2 * l);
        __m256d v = _mm256_loadu_pd(bot + 2 * l);
        butterfly_lanes(u, v, wr, wi);
        _mm256_storeu_pd(top + 2 * l, u);
        _mm256_storeu_pd(bot + 2 * l, v);
      }
      if (full < nl) {
        __m256d u = _mm256_maskload_pd(top + 2 * full, tail);
        __m256d v = _mm256_maskload_pd(bot + 2 * full, tail);
        butterfly_lanes(u, v, wr, wi);
        _mm256_maskstore_pd(top + 2 * full, tail, u);
        _mm256_maskstore_pd(bot + 2 * full, tail, v);
      }
    }
  }
}

// Two consecutive butterfly stages in one pass: stage `len` (half h,
// twiddles tw_a) then stage 2·len (half 2h, twiddles tw_b). Rows j, j+h,
// j+2h, j+3h of each 4h block are closed under both stages, so they are
// loaded once, run the four butterflies of the two radix2_stage_lanes
// calls (the same broadcast twiddles and butterfly_lanes, in the same
// stage order) in registers, and are stored once: half the loads and
// stores, and the bits of the two calls.

[[gnu::target("avx2,fma")]] inline void radix2_pair_lanes(
    std::complex<float>* x, index_t n, index_t len,
    const std::complex<float>* tw_a, const std::complex<float>* tw_b,
    index_t nl, index_t stride, bool inverse) {
  const index_t h = len / 2;
  const index_t full = nl - nl % 4;
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(2 * (nl - full))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  float* xf = reinterpret_cast<float*>(x);
  for (index_t base = 0; base < n; base += 2 * len) {
    for (index_t j = 0; j < h; ++j) {
      __m256 ar, ai, br, bi, cr, ci;
      broadcast_twiddle(tw_a[j], inverse, ar, ai);
      broadcast_twiddle(tw_b[j], inverse, br, bi);
      broadcast_twiddle(tw_b[j + h], inverse, cr, ci);
      float* r0 = xf + 2 * (base + j) * stride;
      float* r1 = r0 + 2 * h * stride;
      float* r2 = r1 + 2 * h * stride;
      float* r3 = r2 + 2 * h * stride;
      for (index_t l = 0; l < full; l += 4) {
        __m256 x0 = _mm256_loadu_ps(r0 + 2 * l);
        __m256 x1 = _mm256_loadu_ps(r1 + 2 * l);
        __m256 x2 = _mm256_loadu_ps(r2 + 2 * l);
        __m256 x3 = _mm256_loadu_ps(r3 + 2 * l);
        butterfly_lanes(x0, x1, ar, ai);
        butterfly_lanes(x2, x3, ar, ai);
        butterfly_lanes(x0, x2, br, bi);
        butterfly_lanes(x1, x3, cr, ci);
        _mm256_storeu_ps(r0 + 2 * l, x0);
        _mm256_storeu_ps(r1 + 2 * l, x1);
        _mm256_storeu_ps(r2 + 2 * l, x2);
        _mm256_storeu_ps(r3 + 2 * l, x3);
      }
      if (full < nl) {
        __m256 x0 = _mm256_maskload_ps(r0 + 2 * full, tail);
        __m256 x1 = _mm256_maskload_ps(r1 + 2 * full, tail);
        __m256 x2 = _mm256_maskload_ps(r2 + 2 * full, tail);
        __m256 x3 = _mm256_maskload_ps(r3 + 2 * full, tail);
        butterfly_lanes(x0, x1, ar, ai);
        butterfly_lanes(x2, x3, ar, ai);
        butterfly_lanes(x0, x2, br, bi);
        butterfly_lanes(x1, x3, cr, ci);
        _mm256_maskstore_ps(r0 + 2 * full, tail, x0);
        _mm256_maskstore_ps(r1 + 2 * full, tail, x1);
        _mm256_maskstore_ps(r2 + 2 * full, tail, x2);
        _mm256_maskstore_ps(r3 + 2 * full, tail, x3);
      }
    }
  }
}

[[gnu::target("avx2,fma")]] inline void radix2_pair_lanes(
    std::complex<double>* x, index_t n, index_t len,
    const std::complex<double>* tw_a, const std::complex<double>* tw_b,
    index_t nl, index_t stride, bool inverse) {
  const index_t h = len / 2;
  const index_t full = nl - nl % 2;
  const __m256i tail = _mm256_setr_epi64x(-1, -1, 0, 0);
  double* xd = reinterpret_cast<double*>(x);
  for (index_t base = 0; base < n; base += 2 * len) {
    for (index_t j = 0; j < h; ++j) {
      __m256d ar, ai, br, bi, cr, ci;
      broadcast_twiddle(tw_a[j], inverse, ar, ai);
      broadcast_twiddle(tw_b[j], inverse, br, bi);
      broadcast_twiddle(tw_b[j + h], inverse, cr, ci);
      double* r0 = xd + 2 * (base + j) * stride;
      double* r1 = r0 + 2 * h * stride;
      double* r2 = r1 + 2 * h * stride;
      double* r3 = r2 + 2 * h * stride;
      for (index_t l = 0; l < full; l += 2) {
        __m256d x0 = _mm256_loadu_pd(r0 + 2 * l);
        __m256d x1 = _mm256_loadu_pd(r1 + 2 * l);
        __m256d x2 = _mm256_loadu_pd(r2 + 2 * l);
        __m256d x3 = _mm256_loadu_pd(r3 + 2 * l);
        butterfly_lanes(x0, x1, ar, ai);
        butterfly_lanes(x2, x3, ar, ai);
        butterfly_lanes(x0, x2, br, bi);
        butterfly_lanes(x1, x3, cr, ci);
        _mm256_storeu_pd(r0 + 2 * l, x0);
        _mm256_storeu_pd(r1 + 2 * l, x1);
        _mm256_storeu_pd(r2 + 2 * l, x2);
        _mm256_storeu_pd(r3 + 2 * l, x3);
      }
      if (full < nl) {
        __m256d x0 = _mm256_maskload_pd(r0 + 2 * full, tail);
        __m256d x1 = _mm256_maskload_pd(r1 + 2 * full, tail);
        __m256d x2 = _mm256_maskload_pd(r2 + 2 * full, tail);
        __m256d x3 = _mm256_maskload_pd(r3 + 2 * full, tail);
        butterfly_lanes(x0, x1, ar, ai);
        butterfly_lanes(x2, x3, ar, ai);
        butterfly_lanes(x0, x2, br, bi);
        butterfly_lanes(x1, x3, cr, ci);
        _mm256_maskstore_pd(r0 + 2 * full, tail, x0);
        _mm256_maskstore_pd(r1 + 2 * full, tail, x1);
        _mm256_maskstore_pd(r2 + 2 * full, tail, x2);
        _mm256_maskstore_pd(r3 + 2 * full, tail, x3);
      }
    }
  }
}

// Batched rfft unpack: z and out are lane-interleaved (h resp. h+1 rows of
// nl lanes); bins masked out by keep are skipped outright (their out rows
// are left untouched). Unlike the within-line kernel there are no edge-bin
// special cases — the wrap indices (k % h) handle bins 0 and h with the
// same fused formulas, vectorized across lanes.

[[gnu::target("avx2,fma")]] inline void rfft_unpack_lanes(
    const std::complex<float>* z, std::complex<float>* out, index_t h,
    const std::uint8_t* keep, const std::complex<float>* tw, index_t nl) {
  using cpx = std::complex<float>;
  const __m256 conj_mask = _mm256_castsi256_ps(_mm256_setr_epi32(
      0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN));
  const __m256 half_ps = _mm256_set1_ps(0.5f);
  const __m256 half_alt =
      _mm256_setr_ps(0.5f, -0.5f, 0.5f, -0.5f, 0.5f, -0.5f, 0.5f, -0.5f);
  const float* zf = reinterpret_cast<const float*>(z);
  float* outf = reinterpret_cast<float*>(out);
  for (index_t k = 0; k <= h; ++k) {
    if (keep != nullptr && keep[k] == 0) continue;
    const index_t ki = (k % h) * nl;
    const index_t ci = ((h - k) % h) * nl;
    const cpx w = tw[k];
    const __m256 wr = _mm256_set1_ps(w.real());
    const __m256 wi = _mm256_set1_ps(w.imag());
    index_t l = 0;
    for (; l + 4 <= nl; l += 4) {
      const __m256 zk = _mm256_loadu_ps(zf + 2 * (ki + l));
      __m256 zc = _mm256_loadu_ps(zf + 2 * (ci + l));
      zc = _mm256_xor_ps(zc, conj_mask);
      const __m256 e = _mm256_mul_ps(_mm256_add_ps(zk, zc), half_ps);
      const __m256 d = _mm256_sub_ps(zk, zc);
      const __m256 o = _mm256_mul_ps(_mm256_permute_ps(d, 0xB1), half_alt);
      const __m256 os = _mm256_permute_ps(o, 0xB1);
      const __m256 wo = _mm256_fmaddsub_ps(wr, o, _mm256_mul_ps(wi, os));
      _mm256_storeu_ps(outf + 2 * (k * nl + l), _mm256_add_ps(e, wo));
    }
    for (; l < nl; ++l) {
      const cpx zk = z[ki + l];
      const cpx zc = std::conj(z[ci + l]);
      const cpx e = (zk + zc) * 0.5f;
      const cpx d = zk - zc;
      const cpx o(0.5f * d.imag(), -0.5f * d.real());
      out[k * nl + l] = e + cmul_fused(w, o);
    }
  }
}

[[gnu::target("avx2,fma")]] inline void rfft_unpack_lanes(
    const std::complex<double>* z, std::complex<double>* out, index_t h,
    const std::uint8_t* keep, const std::complex<double>* tw, index_t nl) {
  using cpx = std::complex<double>;
  const __m256d conj_mask = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0, INT64_MIN, 0, INT64_MIN));
  const __m256d half_pd = _mm256_set1_pd(0.5);
  const __m256d half_alt = _mm256_setr_pd(0.5, -0.5, 0.5, -0.5);
  const double* zd = reinterpret_cast<const double*>(z);
  double* outd = reinterpret_cast<double*>(out);
  for (index_t k = 0; k <= h; ++k) {
    if (keep != nullptr && keep[k] == 0) continue;
    const index_t ki = (k % h) * nl;
    const index_t ci = ((h - k) % h) * nl;
    const cpx w = tw[k];
    const __m256d wr = _mm256_set1_pd(w.real());
    const __m256d wi = _mm256_set1_pd(w.imag());
    index_t l = 0;
    for (; l + 2 <= nl; l += 2) {
      const __m256d zk = _mm256_loadu_pd(zd + 2 * (ki + l));
      __m256d zc = _mm256_loadu_pd(zd + 2 * (ci + l));
      zc = _mm256_xor_pd(zc, conj_mask);
      const __m256d e = _mm256_mul_pd(_mm256_add_pd(zk, zc), half_pd);
      const __m256d d = _mm256_sub_pd(zk, zc);
      const __m256d o = _mm256_mul_pd(_mm256_permute_pd(d, 0x5), half_alt);
      const __m256d os = _mm256_permute_pd(o, 0x5);
      const __m256d wo = _mm256_fmaddsub_pd(wr, o, _mm256_mul_pd(wi, os));
      _mm256_storeu_pd(outd + 2 * (k * nl + l), _mm256_add_pd(e, wo));
    }
    for (; l < nl; ++l) {
      const cpx zk = z[ki + l];
      const cpx zc = std::conj(z[ci + l]);
      const cpx e = (zk + zc) * 0.5;
      const cpx d = zk - zc;
      const cpx o(0.5 * d.imag(), -0.5 * d.real());
      out[k * nl + l] = e + cmul_fused(w, o);
    }
  }
}

// Batched irfft pack: in (h+1 lane-interleaved rows) → z (h rows). Bin 0
// zeroes the DC/Nyquist imaginary parts across lanes (real_mask) instead of
// conjugating, matching the C2R convention of the scalar path.

[[gnu::target("avx2,fma")]] inline void irfft_pack_lanes(
    const std::complex<float>* in, std::complex<float>* z, index_t h,
    const std::complex<float>* tw, index_t nl) {
  using cpx = std::complex<float>;
  const __m256 conj_mask = _mm256_castsi256_ps(_mm256_setr_epi32(
      0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN));
  const __m256 real_mask = _mm256_castsi256_ps(
      _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0));
  const __m256 half_ps = _mm256_set1_ps(0.5f);
  const float* inf = reinterpret_cast<const float*>(in);
  float* zf = reinterpret_cast<float*>(z);
  for (index_t k = 0; k < h; ++k) {
    const cpx w = tw[k];
    const __m256 wv =
        _mm256_castpd_ps(_mm256_set1_pd(std::bit_cast<double>(w)));
    const __m256 ws = _mm256_permute_ps(wv, 0xB1);
    index_t l = 0;
    for (; l + 4 <= nl; l += 4) {
      __m256 xk = _mm256_loadu_ps(inf + 2 * (k * nl + l));
      __m256 xc = _mm256_loadu_ps(inf + 2 * ((h - k) * nl + l));
      if (k == 0) {
        xk = _mm256_and_ps(xk, real_mask);
        xc = _mm256_and_ps(xc, real_mask);
      } else {
        xc = _mm256_xor_ps(xc, conj_mask);
      }
      const __m256 e = _mm256_mul_ps(_mm256_add_ps(xk, xc), half_ps);
      const __m256 d = _mm256_mul_ps(_mm256_sub_ps(xk, xc), half_ps);
      const __m256 dr = _mm256_moveldup_ps(d);
      const __m256 di = _mm256_movehdup_ps(d);
      const __m256 o = _mm256_fmaddsub_ps(dr, wv, _mm256_mul_ps(di, ws));
      const __m256 res = _mm256_addsub_ps(e, _mm256_permute_ps(o, 0xB1));
      _mm256_storeu_ps(zf + 2 * (k * nl + l), res);
    }
    for (; l < nl; ++l) {
      const cpx xk = (k == 0) ? cpx(in[l].real(), 0.0f) : in[k * nl + l];
      const cpx xc = (k == 0) ? cpx(in[h * nl + l].real(), 0.0f)
                              : std::conj(in[(h - k) * nl + l]);
      const cpx e = (xk + xc) * 0.5f;
      const cpx d = (xk - xc) * 0.5f;
      const cpx o = cmul_fused(d, w);
      z[k * nl + l] = cpx(e.real() - o.imag(), e.imag() + o.real());
    }
  }
}

[[gnu::target("avx2,fma")]] inline void irfft_pack_lanes(
    const std::complex<double>* in, std::complex<double>* z, index_t h,
    const std::complex<double>* tw, index_t nl) {
  using cpx = std::complex<double>;
  const __m256d conj_mask = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0, INT64_MIN, 0, INT64_MIN));
  const __m256d real_mask = _mm256_castsi256_pd(
      _mm256_setr_epi64x(-1, 0, -1, 0));
  const __m256d half_pd = _mm256_set1_pd(0.5);
  const double* ind = reinterpret_cast<const double*>(in);
  double* zd = reinterpret_cast<double*>(z);
  for (index_t k = 0; k < h; ++k) {
    const cpx w = tw[k];
    const __m256d wv =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&w));
    const __m256d ws = _mm256_permute_pd(wv, 0x5);
    index_t l = 0;
    for (; l + 2 <= nl; l += 2) {
      __m256d xk = _mm256_loadu_pd(ind + 2 * (k * nl + l));
      __m256d xc = _mm256_loadu_pd(ind + 2 * ((h - k) * nl + l));
      if (k == 0) {
        xk = _mm256_and_pd(xk, real_mask);
        xc = _mm256_and_pd(xc, real_mask);
      } else {
        xc = _mm256_xor_pd(xc, conj_mask);
      }
      const __m256d e = _mm256_mul_pd(_mm256_add_pd(xk, xc), half_pd);
      const __m256d d = _mm256_mul_pd(_mm256_sub_pd(xk, xc), half_pd);
      const __m256d dr = _mm256_movedup_pd(d);
      const __m256d di = _mm256_permute_pd(d, 0xF);
      const __m256d o = _mm256_fmaddsub_pd(dr, wv, _mm256_mul_pd(di, ws));
      const __m256d res = _mm256_addsub_pd(e, _mm256_permute_pd(o, 0x5));
      _mm256_storeu_pd(zd + 2 * (k * nl + l), res);
    }
    for (; l < nl; ++l) {
      const cpx xk = (k == 0) ? cpx(in[l].real(), 0.0) : in[k * nl + l];
      const cpx xc = (k == 0) ? cpx(in[h * nl + l].real(), 0.0)
                              : std::conj(in[(h - k) * nl + l]);
      const cpx e = (xk + xc) * 0.5;
      const cpx d = (xk - xc) * 0.5;
      const cpx o = cmul_fused(d, w);
      z[k * nl + l] = cpx(e.real() - o.imag(), e.imag() + o.real());
    }
  }
}

}  // namespace turb::fft::avx2

#endif  // x86
