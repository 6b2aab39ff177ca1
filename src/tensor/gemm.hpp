// Small dense matrix multiply kernels (row-major).
//
// The nn Linear layers (channel-wise 1×1 convolutions) reduce to GEMMs with
// modest inner dimensions (channel counts 1–256), so cache-aware loop
// orderings the compiler can autovectorise are sufficient; there is no
// external BLAS dependency.
//
//   gemm_nn : C = alpha * A   * B   + beta * C   A: m×k, B: k×n, C: m×n
//   gemm_tn : C = alpha * Aᵀ  * B   + beta * C   A: k×m, B: k×n, C: m×n
//   gemm_nt : C = alpha * A   * Bᵀ  + beta * C   A: m×k, B: n×k, C: m×n
//
// The transposed variants are exactly the shapes needed by the backward
// passes (dX = Wᵀ·dY, dW = dY·Xᵀ).
//
// gemm_nn/gemm_tn use a register-tiled panel kernel: each C row is produced
// in j-blocks of kPanel accumulators that live in registers across the whole
// k loop (one load + one store per C element instead of one load/store per
// k step). The k loop is unrolled by two with a single accumulator per
// element, so every C element still sees the multiply-adds in ascending-k
// order — the tiling changes instruction scheduling, not the rounding
// sequence, which keeps results bitwise identical to the scalar kernel and
// preserves the thread-count determinism contract.
//
// All three entry points dispatch per call on util::active_isa(): the scalar
// panel kernels above are the reference (and the only implementation off
// x86), the AVX2/FMA kernels in tensor/gemm_avx2.hpp the fast path. Dispatch
// sits inside the shared kernel, below the gemm_rows work partition, so the
// Tier A per-ISA bitwise contract (util/isa.hpp) holds at every thread count
// and for every caller, training and inference engine alike.
#pragma once

#include "obs/obs.hpp"
#include "tensor/gemm_avx2.hpp"
#include "util/common.hpp"
#include "util/isa.hpp"
#include "util/thread_pool.hpp"

namespace turb {

namespace detail {

/// Call/flop accounting shared by the three kernels. Two relaxed atomic adds
/// per GEMM call — noise next to the 2·m·n·k multiply-adds of the call
/// itself, but enough for obs::dump_json to report arithmetic throughput.
inline void count_gemm(index_t m, index_t n, index_t k) {
  static obs::Counter& calls = obs::counter("tensor/gemm_calls");
  static obs::Counter& flops = obs::counter("tensor/gemm_flops");
  calls.add(1);
  flops.add(2 * m * n * k);
}

/// Minimum multiply-add count before a GEMM is worth row-tiling over the
/// pool (below this the dispatch overhead dominates the arithmetic).
inline constexpr index_t kParallelGemmFlops = index_t{1} << 15;

/// Per-call ISA dispatch: resolves the active ISA, bumps the per-family
/// counter, and reports whether the AVX2 kernels should run (never true on
/// builds without them).
inline bool gemm_dispatch_avx2() {
  const util::Isa isa = util::active_isa();
  util::gemm_dispatch_counter(isa).add(1);
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  return isa == util::Isa::kAvx2;
#else
  return false;
#endif
}

/// Register-tile width of the panel kernels: 8 floats fill one 256-bit
/// vector (two for doubles), small enough that the accumulators plus the
/// broadcast A value stay in registers on any x86-64 / aarch64 target.
inline constexpr index_t kPanel = 8;

/// Run body(row_begin, row_end) over [0, m), row-tiled on the pool when the
/// call is large enough (the pool itself runs a one-row range, or a nested
/// call such as the per-sample GEMMs of a batch-parallel layer, as one
/// serial call). Every C row is produced by exactly one task with an
/// unchanged inner-loop order, so the result is bitwise identical to the
/// serial kernel at every thread count.
template <typename Body>
inline void gemm_rows(index_t m, index_t n, index_t k, const Body& body) {
  if (m * n * k >= kParallelGemmFlops) {
    parallel_for_chunked(0, m, body);
  } else {
    body(0, m);
  }
}

/// One row of C updated as c[j] (+)= alpha * Σ_p a_of_p(p) * b[p*ldb + j],
/// j-blocked into kPanel-wide register tiles. `a_of_p` abstracts the A
/// access pattern (contiguous row for gemm_nn, strided column for gemm_tn).
template <typename T, typename AOf>
inline void gemm_row_panels(index_t n, index_t k, T alpha, const AOf& a_of_p,
                            const T* b, index_t ldb, T beta, T* ci) {
  index_t j0 = 0;
  for (; j0 + kPanel <= n; j0 += kPanel) {
    T acc[kPanel];
    if (beta == T{0}) {
      for (index_t r = 0; r < kPanel; ++r) acc[r] = T{0};
    } else if (beta == T{1}) {
      for (index_t r = 0; r < kPanel; ++r) acc[r] = ci[j0 + r];
    } else {
      for (index_t r = 0; r < kPanel; ++r) acc[r] = beta * ci[j0 + r];
    }
    index_t p = 0;
    for (; p + 2 <= k; p += 2) {
      const T a0 = alpha * a_of_p(p);
      const T a1 = alpha * a_of_p(p + 1);
      const T* b0 = b + p * ldb + j0;
      const T* b1 = b0 + ldb;
      for (index_t r = 0; r < kPanel; ++r) {
        // Two sequential adds per accumulator — ascending-k order, exactly
        // the rounding sequence of the unblocked loop.
        acc[r] += a0 * b0[r];
        acc[r] += a1 * b1[r];
      }
    }
    for (; p < k; ++p) {
      const T aip = alpha * a_of_p(p);
      const T* bp = b + p * ldb + j0;
      for (index_t r = 0; r < kPanel; ++r) acc[r] += aip * bp[r];
    }
    for (index_t r = 0; r < kPanel; ++r) ci[j0 + r] = acc[r];
  }
  if (j0 < n) {
    // Tail columns: the original in-memory kernel (same per-element order).
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

}  // namespace detail

template <typename T>
void gemm_nn(index_t m, index_t n, index_t k, T alpha, const T* a, index_t lda,
             const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  detail::count_gemm(m, n, k);
  const bool use_avx2 = detail::gemm_dispatch_avx2();
  detail::gemm_rows(m, n, k, [=](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      const T* ai = a + i * lda;
      const auto a_of_p = [ai](index_t p) { return ai[p]; };
#if defined(TURBFNO_HAS_AVX2_KERNELS)
      if (use_avx2) {
        detail::avx2::row_panels(n, k, alpha, a_of_p, b, ldb, beta,
                                 c + i * ldc);
        continue;
      }
#else
      (void)use_avx2;
#endif
      detail::gemm_row_panels(n, k, alpha, a_of_p, b, ldb, beta, c + i * ldc);
    }
  });
}

template <typename T>
void gemm_tn(index_t m, index_t n, index_t k, T alpha, const T* a, index_t lda,
             const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  detail::count_gemm(m, n, k);
  const bool use_avx2 = detail::gemm_dispatch_avx2();
  detail::gemm_rows(m, n, k, [=](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      const auto a_of_p = [a, lda, i](index_t p) { return a[p * lda + i]; };
#if defined(TURBFNO_HAS_AVX2_KERNELS)
      if (use_avx2) {
        detail::avx2::row_panels(n, k, alpha, a_of_p, b, ldb, beta,
                                 c + i * ldc);
        continue;
      }
#else
      (void)use_avx2;
#endif
      detail::gemm_row_panels(n, k, alpha, a_of_p, b, ldb, beta, c + i * ldc);
    }
  });
}

namespace detail {

/// One row of the nt kernel, j-blocked into kPanel-wide register tiles.
/// Each accumulator collects the raw dot product Σ_p a[p]·b[(j0+r)·ldb+p]
/// in ascending-p order (unrolled by two, single accumulator per element)
/// and alpha/beta are applied once at the end — the exact per-element
/// operation order of the scalar loop below it, so the tiled and scalar
/// kernels are bitwise identical.
template <typename T>
inline void gemm_nt_row_panels(index_t n, index_t k, T alpha, const T* ai,
                               const T* b, index_t ldb, T beta, T* ci) {
  index_t j0 = 0;
  for (; j0 + kPanel <= n; j0 += kPanel) {
    T acc[kPanel];
    for (index_t r = 0; r < kPanel; ++r) acc[r] = T{0};
    index_t p = 0;
    for (; p + 2 <= k; p += 2) {
      const T a0 = ai[p];
      const T a1 = ai[p + 1];
      for (index_t r = 0; r < kPanel; ++r) {
        const T* bj = b + (j0 + r) * ldb;
        acc[r] += a0 * bj[p];
        acc[r] += a1 * bj[p + 1];
      }
    }
    for (; p < k; ++p) {
      const T a0 = ai[p];
      for (index_t r = 0; r < kPanel; ++r) acc[r] += a0 * b[(j0 + r) * ldb + p];
    }
    if (beta == T{0}) {
      for (index_t r = 0; r < kPanel; ++r) ci[j0 + r] = alpha * acc[r];
    } else {
      for (index_t r = 0; r < kPanel; ++r) {
        ci[j0 + r] = alpha * acc[r] + beta * ci[j0 + r];
      }
    }
  }
  // Tail columns: the original scalar kernel (same per-element order).
  if (beta == T{0}) {
    for (index_t j = j0; j < n; ++j) {
      const T* bj = b + j * ldb;
      T acc{};
      for (index_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = alpha * acc;
    }
  } else {
    for (index_t j = j0; j < n; ++j) {
      const T* bj = b + j * ldb;
      T acc{};
      for (index_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = alpha * acc + beta * ci[j];
    }
  }
}

}  // namespace detail

template <typename T>
void gemm_nt(index_t m, index_t n, index_t k, T alpha, const T* a, index_t lda,
             const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  detail::count_gemm(m, n, k);
  const bool use_avx2 = detail::gemm_dispatch_avx2();
  detail::gemm_rows(m, n, k, [=](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
#if defined(TURBFNO_HAS_AVX2_KERNELS)
      if (use_avx2) {
        detail::avx2::nt_row(n, k, alpha, a + i * lda, b, ldb, beta,
                             c + i * ldc);
        continue;
      }
#else
      (void)use_avx2;
#endif
      detail::gemm_nt_row_panels(n, k, alpha, a + i * lda, b, ldb, beta,
                                 c + i * ldc);
    }
  });
}

}  // namespace turb
