// Explicit AVX2/FMA register-panel kernels behind util::isa runtime dispatch
// (gemm.hpp holds the scalar reference kernels and the dispatch sites).
//
// Compiled with per-function target attributes, so this header is safe to
// include from TUs built without -mavx2; the functions must only be CALLED
// when util::cpu_supports_avx2() is true (util::active_isa() guarantees it).
// Each kernel is one template over float and double; util::Lanes<T>
// (util/avx2.hpp) supplies the registers and intrinsics of each type.
//
// Determinism properties (DESIGN.md "Determinism tiers"):
//
//   * Within the avx2 ISA the kernels are bitwise deterministic: every C
//     element is produced by one accumulator updated in ascending-k order,
//     independent of its neighbours, so the row partition of the thread pool
//     and the caller's column blocking (the inference engine calls the same
//     kernel over 64-wide column blocks; kColBlock is a multiple of every
//     vector group width used here) cannot change any element's rounding
//     sequence.
//   * Against the scalar kernels the results differ in the last bits: FMA
//     fuses the multiply-add rounding the scalar kernels perform in two
//     steps. tests/test_isa.cpp bounds the difference (Tier B).
//
// Column treatment mirrors the scalar panel layout: vector panels of
// Lanes<T>::kReal columns from column 0 (grouped four registers wide for
// ILP — the grouping does not affect per-lane arithmetic), then the scalar
// kernel's tail loop for the last n mod kReal columns.
#pragma once

#include "util/avx2.hpp"
#include "util/common.hpp"

#if defined(TURBFNO_HAS_AVX2_KERNELS)

namespace turb::detail::avx2 {

// ---- C-row panel update (gemm_nn / gemm_tn shapes) -------------------------
//
// ci[j] (+)= alpha * Σ_p a_of_p(p) * b[p·ldb + j]; one fused multiply-add
// per (j, p) in ascending-p order.

// G adjacent registers of C from column j0, each one accumulator held in a
// register across the whole p loop.
template <index_t G, typename T, typename AOf>
[[gnu::target("avx2,fma")]] inline void panel_group(index_t j0, index_t k,
                                                    T alpha, const AOf& a_of_p,
                                                    const T* b, index_t ldb,
                                                    T beta, T* ci) {
  using L = util::Lanes<T>;
  constexpr index_t w = L::kReal;
  T* c0 = ci + j0;
  typename L::reg acc[G];
  if (beta == T{0}) {
    for (index_t r = 0; r < G; ++r) acc[r] = L::zero();
  } else if (beta == T{1}) {
    for (index_t r = 0; r < G; ++r) acc[r] = L::load(c0 + r * w);
  } else {
    const auto vb = L::set1(beta);
    for (index_t r = 0; r < G; ++r) acc[r] = L::mul(vb, L::load(c0 + r * w));
  }
  for (index_t p = 0; p < k; ++p) {
    const auto va = L::set1(alpha * a_of_p(p));
    const T* bp = b + p * ldb + j0;
    for (index_t r = 0; r < G; ++r) {
      acc[r] = L::fmadd(va, L::load(bp + r * w), acc[r]);
    }
  }
  for (index_t r = 0; r < G; ++r) L::store(c0 + r * w, acc[r]);
}

template <typename T, typename AOf>
[[gnu::target("avx2,fma")]] inline void row_panels(index_t n, index_t k,
                                                   T alpha, const AOf& a_of_p,
                                                   const T* b, index_t ldb,
                                                   T beta, T* ci) {
  constexpr index_t w = util::Lanes<T>::kReal;
  index_t j0 = 0;
  for (; j0 + 4 * w <= n; j0 += 4 * w) {
    panel_group<4>(j0, k, alpha, a_of_p, b, ldb, beta, ci);
  }
  for (; j0 + w <= n; j0 += w) {
    panel_group<1>(j0, k, alpha, a_of_p, b, ldb, beta, ci);
  }
  if (j0 < n) {
    // Tail columns: the scalar kernel's in-memory tail loop.
    const index_t tail = n - j0;
    T* ct = ci + j0;
    if (beta == T{0}) {
      for (index_t j = 0; j < tail; ++j) ct[j] = T{0};
    } else if (beta != T{1}) {
      for (index_t j = 0; j < tail; ++j) ct[j] *= beta;
    }
    for (index_t p = 0; p < k; ++p) {
      const T aip = alpha * a_of_p(p);
      const T* bp = b + p * ldb + j0;
      for (index_t j = 0; j < tail; ++j) ct[j] += aip * bp[j];
    }
  }
}

// ---- Dot-product row (gemm_nt shape) ---------------------------------------
//
// ci[j] = alpha · dot(ai, b_j) (+ beta·ci[j]); both operand rows are
// contiguous along k. The dot runs two independent FMA chains of one
// register each, folds them in a fixed lane order, then adds the scalar
// remainder — a deterministic order that does not depend on threads or the
// caller, but differs from the scalar kernel's single ascending-p chain
// (Tier B).

template <typename T>
[[gnu::target("avx2,fma")]] inline T dot(const T* a, const T* b, index_t k) {
  using L = util::Lanes<T>;
  constexpr index_t w = L::kReal;
  auto acc0 = L::zero();
  auto acc1 = L::zero();
  index_t p = 0;
  for (; p + 2 * w <= k; p += 2 * w) {
    acc0 = L::fmadd(L::load(a + p), L::load(b + p), acc0);
    acc1 = L::fmadd(L::load(a + p + w), L::load(b + p + w), acc1);
  }
  for (; p + w <= k; p += w) {
    acc0 = L::fmadd(L::load(a + p), L::load(b + p), acc0);
  }
  T r = L::hsum(L::add(acc0, acc1));
  for (; p < k; ++p) r += a[p] * b[p];
  return r;
}

template <typename T>
inline void nt_row(index_t n, index_t k, T alpha, const T* ai, const T* b,
                   index_t ldb, T beta, T* ci) {
  for (index_t j = 0; j < n; ++j) {
    const T acc = dot(ai, b + j * ldb, k);
    ci[j] = beta == T{0} ? alpha * acc : alpha * acc + beta * ci[j];
  }
}

}  // namespace turb::detail::avx2

#endif  // TURBFNO_HAS_AVX2_KERNELS
