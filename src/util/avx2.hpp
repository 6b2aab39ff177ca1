// AVX2/FMA lane traits: the one place that knows which register and which
// intrinsic belong to float or to double.
//
// The avx2 FFT kernels (fft/kernels_avx2.hpp) and GEMM kernels
// (tensor/gemm_avx2.hpp) are written once, as templates over the element
// type, and reach the hardware only through Lanes<T>. Each trait is one
// fixed intrinsic (or fixed intrinsic pair), so a kernel body fixes the
// operations, operands and order of every instantiation; a trait edit
// that moves a bit fails IsaTierA.Avx2KernelBytesPinned and the
// Determinism.Avx2* goldens.
//
// Complex data is interleaved [re, im] in memory: a 256-bit register holds
// kReal reals or kCplx complex values.
//
// Every trait is [[gnu::always_inline, gnu::target("avx2,fma")]], so it
// may only be called from a function with that target. A lambda inside
// such a function does not inherit the target, and GCC rejects the inlining
// there: kernels use named, target-attributed helpers instead.
//
// This header also owns the build-side availability macro: it defines
// TURBFNO_HAS_AVX2_KERNELS on x86 and includes <immintrin.h> for every
// avx2 kernel (GELU uses the intrinsics directly).
#pragma once

#include "util/common.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define TURBFNO_HAS_AVX2_KERNELS 1

#include <immintrin.h>

#include <bit>
#include <complex>
#include <cstdint>

#define TURBFNO_LANE_OP [[gnu::always_inline, gnu::target("avx2,fma")]] static

namespace turb::util {

template <typename T>
struct Lanes;

template <>
struct Lanes<float> {
  using reg = __m256;
  static constexpr index_t kReal = 8;
  static constexpr index_t kCplx = 4;

  TURBFNO_LANE_OP reg load(const float* p) { return _mm256_loadu_ps(p); }
  TURBFNO_LANE_OP void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  TURBFNO_LANE_OP reg maskload(const float* p, __m256i m) {
    return _mm256_maskload_ps(p, m);
  }
  TURBFNO_LANE_OP void maskstore(float* p, __m256i m, reg v) {
    _mm256_maskstore_ps(p, m, v);
  }
  TURBFNO_LANE_OP reg set1(float x) { return _mm256_set1_ps(x); }
  TURBFNO_LANE_OP reg zero() { return _mm256_setzero_ps(); }
  /// [re, im] in every complex slot.
  TURBFNO_LANE_OP reg set_pair(float re, float im) {
    return _mm256_setr_ps(re, im, re, im, re, im, re, im);
  }
  /// w in every complex slot, as one 64-bit broadcast.
  TURBFNO_LANE_OP reg broadcast(std::complex<float> w) {
    return _mm256_castpd_ps(_mm256_set1_pd(std::bit_cast<double>(w)));
  }

  TURBFNO_LANE_OP reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  TURBFNO_LANE_OP reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  TURBFNO_LANE_OP reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  TURBFNO_LANE_OP reg fmadd(reg a, reg b, reg c) {
    return _mm256_fmadd_ps(a, b, c);
  }
  TURBFNO_LANE_OP reg fmaddsub(reg a, reg b, reg c) {
    return _mm256_fmaddsub_ps(a, b, c);
  }
  TURBFNO_LANE_OP reg addsub(reg a, reg b) { return _mm256_addsub_ps(a, b); }
  TURBFNO_LANE_OP reg bit_xor(reg a, reg b) { return _mm256_xor_ps(a, b); }
  TURBFNO_LANE_OP reg bit_and(reg a, reg b) { return _mm256_and_ps(a, b); }

  /// Per complex slot: [re, re], [im, im] and [im, re].
  TURBFNO_LANE_OP reg dup_re(reg v) { return _mm256_moveldup_ps(v); }
  TURBFNO_LANE_OP reg dup_im(reg v) { return _mm256_movehdup_ps(v); }
  TURBFNO_LANE_OP reg swap(reg v) { return _mm256_permute_ps(v, 0xB1); }

  /// Sign bit of every imaginary part (xor conjugates).
  TURBFNO_LANE_OP reg conj_mask() {
    return _mm256_castsi256_ps(_mm256_setr_epi32(
        0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN, 0, INT32_MIN));
  }
  /// Every real part (and drops the imaginary parts).
  TURBFNO_LANE_OP reg real_mask() {
    return _mm256_castsi256_ps(
        _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0));
  }
  /// The first `cplx` complex slots, for a ragged lane tail.
  TURBFNO_LANE_OP __m256i tail_mask(index_t cplx) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(2 * cplx)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }

  /// Sum of the lanes, folded in a fixed order.
  TURBFNO_LANE_OP float hsum(reg v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 s4 = _mm_add_ps(lo, hi);
    const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    const __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
    return _mm_cvtss_f32(s1);
  }
};

template <>
struct Lanes<double> {
  using reg = __m256d;
  static constexpr index_t kReal = 4;
  static constexpr index_t kCplx = 2;

  TURBFNO_LANE_OP reg load(const double* p) { return _mm256_loadu_pd(p); }
  TURBFNO_LANE_OP void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  TURBFNO_LANE_OP reg maskload(const double* p, __m256i m) {
    return _mm256_maskload_pd(p, m);
  }
  TURBFNO_LANE_OP void maskstore(double* p, __m256i m, reg v) {
    _mm256_maskstore_pd(p, m, v);
  }
  TURBFNO_LANE_OP reg set1(double x) { return _mm256_set1_pd(x); }
  TURBFNO_LANE_OP reg zero() { return _mm256_setzero_pd(); }
  TURBFNO_LANE_OP reg set_pair(double re, double im) {
    return _mm256_setr_pd(re, im, re, im);
  }
  TURBFNO_LANE_OP reg broadcast(std::complex<double> w) {
    return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&w));
  }

  TURBFNO_LANE_OP reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  TURBFNO_LANE_OP reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  TURBFNO_LANE_OP reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  TURBFNO_LANE_OP reg fmadd(reg a, reg b, reg c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  TURBFNO_LANE_OP reg fmaddsub(reg a, reg b, reg c) {
    return _mm256_fmaddsub_pd(a, b, c);
  }
  TURBFNO_LANE_OP reg addsub(reg a, reg b) { return _mm256_addsub_pd(a, b); }
  TURBFNO_LANE_OP reg bit_xor(reg a, reg b) { return _mm256_xor_pd(a, b); }
  TURBFNO_LANE_OP reg bit_and(reg a, reg b) { return _mm256_and_pd(a, b); }

  TURBFNO_LANE_OP reg dup_re(reg v) { return _mm256_movedup_pd(v); }
  TURBFNO_LANE_OP reg dup_im(reg v) { return _mm256_permute_pd(v, 0xF); }
  TURBFNO_LANE_OP reg swap(reg v) { return _mm256_permute_pd(v, 0x5); }

  TURBFNO_LANE_OP reg conj_mask() {
    return _mm256_castsi256_pd(_mm256_setr_epi64x(0, INT64_MIN, 0, INT64_MIN));
  }
  TURBFNO_LANE_OP reg real_mask() {
    return _mm256_castsi256_pd(_mm256_setr_epi64x(-1, 0, -1, 0));
  }
  /// A ragged double tail is always one complex slot (nl mod 2).
  TURBFNO_LANE_OP __m256i tail_mask(index_t /*cplx*/) {
    return _mm256_setr_epi64x(-1, -1, 0, 0);
  }

  TURBFNO_LANE_OP double hsum(reg v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s2 = _mm_add_pd(lo, hi);
    const __m128d s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    return _mm_cvtsd_f64(s1);
  }
};

}  // namespace turb::util

#undef TURBFNO_LANE_OP

#endif  // x86
