// AVX2/FMA kernels for the radix-2 butterfly stages (fft/plan.hpp) and the
// lane-batched rfft/irfft half-length unpack and pack (fft/real.hpp), behind
// util::isa runtime dispatch.
//
// Per-function target attributes keep the including TUs portable; callers
// must only reach these when util::active_isa() == Isa::kAvx2 (which implies
// CPUID AVX2+FMA). Each kernel is one template over float and double; the
// registers and intrinsics of each type come from util::Lanes<T>
// (util/avx2.hpp), the only per-type code. Complex data is interleaved
// [re, im] in memory, so a 256-bit register holds Lanes<T>::kCplx complex
// values; complex products use the re/im duplicate broadcasts plus
// fmaddsub — the fused rounding is what separates these kernels from the
// scalar reference by a few ulp (Tier B in util/isa.hpp; bounds tested in
// tests/test_isa.cpp).
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
//   * rfft unpack: a bin masked out by the ModeMask is skipped outright and
//     every kept bin runs the same code with or without the mask, so
//     pruned and full transforms stay bitwise identical on the kept bins,
//     the same load-bearing property the scalar path has.
//   * Stages too narrow for a full register (half < kCplx) and lanes past
//     the last full register run in-function scalar code; they are part of
//     the avx2 kernel's fixed operation order, not a dispatch decision.
//   * Canonical fused arithmetic: every complex product on the avx2 tier —
//     vector bodies and in-kernel scalar edges alike — rounds as
//     re = fl(a·c − fl(b·d)), im = fl(a·d + fl(b·c)) (fmaddsub in vector
//     code, cmul_fused below in scalar code). This makes a value's bits
//     independent of which code shape computed it, which is what lets the
//     lane-batched kernels (element j of lane l at x[j*stride + l], same
//     broadcast twiddle for every lane) reproduce the within-line
//     butterflies bit-for-bit, and a row's rfft/irfft bins come out the same
//     on full batches, ragged lane tails and one-lane batches.
#pragma once

#include <complex>
#include <cstdint>

#include "util/avx2.hpp"
#include "util/common.hpp"

#if defined(TURBFNO_HAS_AVX2_KERNELS)

namespace turb::fft::avx2 {

// Scalar complex product with the exact rounding of the vector fmaddsub
// bodies; `a` is the operand the vector code splits into broadcast re/im
// halves (the twiddle in butterflies/unpack, d in pack).
template <typename T>
[[gnu::target("avx2,fma")]] inline std::complex<T> cmul_fused(
    std::complex<T> a, std::complex<T> b) {
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.real(), b.imag(), a.imag() * b.real())};
}

// The scalar lane tails of the unpack and pack kernels, one bin of one lane
// each; zc and xc arrive conjugated. Unpack: E + w·O with E = (zk+zc)/2,
// O = −i/2·(zk−zc).
template <typename T>
[[gnu::target("avx2,fma")]] inline std::complex<T> unpack_bin(
    std::complex<T> zk, std::complex<T> zc, std::complex<T> w) {
  const std::complex<T> e = (zk + zc) * T{0.5};
  const std::complex<T> d = zk - zc;
  const std::complex<T> o(T{0.5} * d.imag(), T{-0.5} * d.real());
  return e + cmul_fused(w, o);
}

// Pack: E + i·O with E = (xk+xc)/2, O = (xk−xc)/2 · w.
template <typename T>
[[gnu::target("avx2,fma")]] inline std::complex<T> pack_bin(
    std::complex<T> xk, std::complex<T> xc, std::complex<T> w) {
  const std::complex<T> e = (xk + xc) * T{0.5};
  const std::complex<T> d = (xk - xc) * T{0.5};
  const std::complex<T> o = cmul_fused(d, w);
  return {e.real() - o.imag(), e.imag() + o.real()};
}

// ---- Radix-2 butterfly stage ----------------------------------------------
//
// One Cooley–Tukey stage of width `len` over the whole length-n array:
//   u = x[base+j]; v = x[base+j+half] * w_j;  x[base+j] = u + v;
//   x[base+j+half] = u - v;   with w_j = tw[j] (conjugated when inverse).

template <typename T>
[[gnu::target("avx2,fma")]] inline void radix2_stage(
    std::complex<T>* x, index_t n, index_t len, const std::complex<T>* tw,
    bool inverse) {
  using L = util::Lanes<T>;
  const index_t half = len / 2;
  if (half < L::kCplx) {
    // For doubles only half == 1 lands here: w = tw[0] = (1, ∓0), every
    // product is exact so fused and plain rounding coincide; cmul_fused
    // keeps the tier uniform.
    for (index_t base = 0; base < n; base += len) {
      for (index_t j = 0; j < half; ++j) {
        std::complex<T> w = tw[j];
        if (inverse) w = std::conj(w);
        const std::complex<T> u = x[base + j];
        const std::complex<T> v = cmul_fused(w, x[base + j + half]);
        x[base + j] = u + v;
        x[base + j + half] = u - v;
      }
    }
    return;
  }
  const auto conj_mask = L::conj_mask();
  T* xs = reinterpret_cast<T*>(x);
  const T* tws = reinterpret_cast<const T*>(tw);
  for (index_t base = 0; base < n; base += len) {
    T* top = xs + 2 * base;
    T* bot = top + 2 * half;
    for (index_t j = 0; j + L::kCplx <= half; j += L::kCplx) {
      auto w = L::load(tws + 2 * j);
      if (inverse) w = L::bit_xor(w, conj_mask);
      const auto u = L::load(top + 2 * j);
      const auto vin = L::load(bot + 2 * j);
      // v = vin * w (complex): re = wr·vr − wi·vi, im = wr·vi + wi·vr.
      const auto wr = L::dup_re(w);
      const auto wi = L::dup_im(w);
      const auto vs = L::swap(vin);  // [vi, vr] pairs
      const auto v = L::fmaddsub(wr, vin, L::mul(wi, vs));
      L::store(top + 2 * j, L::add(u, v));
      L::store(bot + 2 * j, L::sub(u, v));
    }
  }
}

// ---- Lane-batched kernels -------------------------------------------------
//
// Batched kernels over `nl` independent lines held side by side. The rfft
// unpack and irfft pack take a lane-interleaved scratch block (element j of
// lane l at x[j*nl + l]); the butterfly stage takes a row stride, element j
// of lane l at x[j*stride + l], so the same kernel runs a scratch block
// (stride = nl) and a run of adjacent columns of a row-major array
// transformed in place (stride = row length). Each bin/butterfly broadcasts
// its twiddle across lanes and evaluates the fused expressions of the
// within-line butterflies and of unpack_bin / pack_bin, vectorizing over
// lanes (kCplx complex per register) — so a lane's bits are independent of
// batch occupancy. Ragged lane tails run one masked vector in the
// butterflies (the masked-off lanes compute on zeros and are never stored)
// and a cmul_fused scalar loop in the unpack/pack, which is all a one-lane
// batch (a lone row) runs there. PlanC2C::execute_batch runs the butterfly
// stages as fused pairs (radix2_pair_lanes, below), then one
// radix2_stage_lanes stage when log2 n is odd; a one-lane contiguous block
// runs the within-line radix2_stage instead.

// w (conjugated when inverse) as broadcast real and imaginary parts.
template <typename T>
[[gnu::target("avx2,fma")]] inline void broadcast_twiddle(
    std::complex<T> w, bool inverse, typename util::Lanes<T>::reg& wr,
    typename util::Lanes<T>::reg& wi) {
  if (inverse) w = std::conj(w);
  wr = util::Lanes<T>::set1(w.real());
  wi = util::Lanes<T>::set1(w.imag());
}

// One butterfly across lanes: (u, v) ← (u + w·v, u − w·v), with w·v the
// fmaddsub product of the within-line kernels.
template <typename T, typename V = typename util::Lanes<T>::reg>
[[gnu::target("avx2,fma")]] inline void butterfly_lanes(V& u, V& v, V wr,
                                                       V wi) {
  using L = util::Lanes<T>;
  const V vs = L::swap(v);
  const V t = L::fmaddsub(wr, v, L::mul(wi, vs));
  v = L::sub(u, t);
  u = L::add(u, t);
}

template <typename T>
[[gnu::target("avx2,fma")]] inline void radix2_stage_lanes(
    std::complex<T>* x, index_t n, index_t len, const std::complex<T>* tw,
    index_t nl, index_t stride, bool inverse) {
  using L = util::Lanes<T>;
  const index_t half = len / 2;
  const index_t full = nl - nl % L::kCplx;
  const auto tail = L::tail_mask(nl - full);
  T* xs = reinterpret_cast<T*>(x);
  for (index_t base = 0; base < n; base += len) {
    for (index_t j = 0; j < half; ++j) {
      typename L::reg wr, wi;
      broadcast_twiddle(tw[j], inverse, wr, wi);
      T* top = xs + 2 * (base + j) * stride;
      T* bot = xs + 2 * (base + j + half) * stride;
      for (index_t l = 0; l < full; l += L::kCplx) {
        auto u = L::load(top + 2 * l);
        auto v = L::load(bot + 2 * l);
        butterfly_lanes<T>(u, v, wr, wi);
        L::store(top + 2 * l, u);
        L::store(bot + 2 * l, v);
      }
      if (full < nl) {
        auto u = L::maskload(top + 2 * full, tail);
        auto v = L::maskload(bot + 2 * full, tail);
        butterfly_lanes<T>(u, v, wr, wi);
        L::maskstore(top + 2 * full, tail, u);
        L::maskstore(bot + 2 * full, tail, v);
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

template <typename T>
[[gnu::target("avx2,fma")]] inline void radix2_pair_lanes(
    std::complex<T>* x, index_t n, index_t len, const std::complex<T>* tw_a,
    const std::complex<T>* tw_b, index_t nl, index_t stride, bool inverse) {
  using L = util::Lanes<T>;
  const index_t h = len / 2;
  const index_t full = nl - nl % L::kCplx;
  const auto tail = L::tail_mask(nl - full);
  T* xs = reinterpret_cast<T*>(x);
  for (index_t base = 0; base < n; base += 2 * len) {
    for (index_t j = 0; j < h; ++j) {
      typename L::reg ar, ai, br, bi, cr, ci;
      broadcast_twiddle(tw_a[j], inverse, ar, ai);
      broadcast_twiddle(tw_b[j], inverse, br, bi);
      broadcast_twiddle(tw_b[j + h], inverse, cr, ci);
      T* r0 = xs + 2 * (base + j) * stride;
      T* r1 = r0 + 2 * h * stride;
      T* r2 = r1 + 2 * h * stride;
      T* r3 = r2 + 2 * h * stride;
      for (index_t l = 0; l < full; l += L::kCplx) {
        auto x0 = L::load(r0 + 2 * l);
        auto x1 = L::load(r1 + 2 * l);
        auto x2 = L::load(r2 + 2 * l);
        auto x3 = L::load(r3 + 2 * l);
        butterfly_lanes<T>(x0, x1, ar, ai);
        butterfly_lanes<T>(x2, x3, ar, ai);
        butterfly_lanes<T>(x0, x2, br, bi);
        butterfly_lanes<T>(x1, x3, cr, ci);
        L::store(r0 + 2 * l, x0);
        L::store(r1 + 2 * l, x1);
        L::store(r2 + 2 * l, x2);
        L::store(r3 + 2 * l, x3);
      }
      if (full < nl) {
        auto x0 = L::maskload(r0 + 2 * full, tail);
        auto x1 = L::maskload(r1 + 2 * full, tail);
        auto x2 = L::maskload(r2 + 2 * full, tail);
        auto x3 = L::maskload(r3 + 2 * full, tail);
        butterfly_lanes<T>(x0, x1, ar, ai);
        butterfly_lanes<T>(x2, x3, ar, ai);
        butterfly_lanes<T>(x0, x2, br, bi);
        butterfly_lanes<T>(x1, x3, cr, ci);
        L::maskstore(r0 + 2 * full, tail, x0);
        L::maskstore(r1 + 2 * full, tail, x1);
        L::maskstore(r2 + 2 * full, tail, x2);
        L::maskstore(r3 + 2 * full, tail, x3);
      }
    }
  }
}

// Batched rfft unpack: out[k] = E_k + w_k · O_k from the half-length
// spectrum z (h = n/2), with zk = z[k % h], zc = conj(z[(h−k) % h]),
// E = (zk+zc)/2, O = −i/2·(zk−zc), w = tw[k]. z and out are
// lane-interleaved (h resp. h+1 rows of nl lanes); bins masked out by keep
// are skipped outright (their out rows are left untouched). There are no
// edge-bin special cases — the wrap indices (k % h) handle bins 0 and h
// with the same fused formulas, vectorized across lanes.

template <typename T>
[[gnu::target("avx2,fma")]] inline void rfft_unpack_lanes(
    const std::complex<T>* z, std::complex<T>* out, index_t h,
    const std::uint8_t* keep, const std::complex<T>* tw, index_t nl) {
  using L = util::Lanes<T>;
  using cpx = std::complex<T>;
  const auto conj_mask = L::conj_mask();
  const auto half = L::set1(T{0.5});
  const auto half_alt = L::set_pair(T{0.5}, T{-0.5});
  const T* zs = reinterpret_cast<const T*>(z);
  T* outs = reinterpret_cast<T*>(out);
  for (index_t k = 0; k <= h; ++k) {
    if (keep != nullptr && keep[k] == 0) continue;
    const index_t ki = (k % h) * nl;
    const index_t ci = ((h - k) % h) * nl;
    const cpx w = tw[k];
    const auto wr = L::set1(w.real());
    const auto wi = L::set1(w.imag());
    index_t l = 0;
    for (; l + L::kCplx <= nl; l += L::kCplx) {
      const auto zk = L::load(zs + 2 * (ki + l));
      auto zc = L::load(zs + 2 * (ci + l));
      zc = L::bit_xor(zc, conj_mask);
      const auto e = L::mul(L::add(zk, zc), half);
      const auto d = L::sub(zk, zc);
      const auto o = L::mul(L::swap(d), half_alt);
      const auto os = L::swap(o);
      const auto wo = L::fmaddsub(wr, o, L::mul(wi, os));
      L::store(outs + 2 * (k * nl + l), L::add(e, wo));
    }
    for (; l < nl; ++l) {
      out[k * nl + l] = unpack_bin(z[ki + l], std::conj(z[ci + l]), w);
    }
  }
}

// Batched irfft pack: z[k] = E_k + i·O_k with E = (xk+xc)/2,
// O = (xk−xc)/2 · w_k, xk = in[k], xc = conj(in[h−k]); in holds h+1
// lane-interleaved rows, z h rows. Bin 0 zeroes the DC/Nyquist imaginary
// parts across lanes (real_mask) instead of conjugating, matching the C2R
// convention of the scalar path.

template <typename T>
[[gnu::target("avx2,fma")]] inline void irfft_pack_lanes(
    const std::complex<T>* in, std::complex<T>* z, index_t h,
    const std::complex<T>* tw, index_t nl) {
  using L = util::Lanes<T>;
  using cpx = std::complex<T>;
  const auto conj_mask = L::conj_mask();
  const auto real_mask = L::real_mask();
  const auto half = L::set1(T{0.5});
  const T* ins = reinterpret_cast<const T*>(in);
  T* zs = reinterpret_cast<T*>(z);
  for (index_t k = 0; k < h; ++k) {
    const cpx w = tw[k];
    const auto wv = L::broadcast(w);
    const auto ws = L::swap(wv);
    index_t l = 0;
    for (; l + L::kCplx <= nl; l += L::kCplx) {
      auto xk = L::load(ins + 2 * (k * nl + l));
      auto xc = L::load(ins + 2 * ((h - k) * nl + l));
      if (k == 0) {
        xk = L::bit_and(xk, real_mask);
        xc = L::bit_and(xc, real_mask);
      } else {
        xc = L::bit_xor(xc, conj_mask);
      }
      const auto e = L::mul(L::add(xk, xc), half);
      const auto d = L::mul(L::sub(xk, xc), half);
      const auto dr = L::dup_re(d);
      const auto di = L::dup_im(d);
      const auto o = L::fmaddsub(dr, wv, L::mul(di, ws));
      const auto res = L::addsub(e, L::swap(o));
      L::store(zs + 2 * (k * nl + l), res);
    }
    for (; l < nl; ++l) {
      const cpx xk = (k == 0) ? cpx(in[l].real(), T{0}) : in[k * nl + l];
      const cpx xc = (k == 0) ? cpx(in[h * nl + l].real(), T{0})
                              : std::conj(in[(h - k) * nl + l]);
      z[k * nl + l] = pack_bin(xk, xc, w);
    }
  }
}

}  // namespace turb::fft::avx2

#endif  // TURBFNO_HAS_AVX2_KERNELS
