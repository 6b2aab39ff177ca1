#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

namespace turb {
namespace {

TEST(Shape, NumelAndStrides) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(numel(s), 24);
  const Shape strides = row_major_strides(s);
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, EmptyShapeIsScalar) {
  const Shape s{};
  EXPECT_EQ(numel(s), 1);
}

TEST(Shape, ToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, ZeroInitialised) {
  TensorD t({3, 4});
  for (index_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0);
  EXPECT_EQ(t.size(), 12);
  EXPECT_EQ(t.rank(), 2u);
}

TEST(Tensor, FillValueConstructor) {
  TensorF t({2, 2}, 3.5f);
  for (index_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 3.5f);
}

TEST(Tensor, MultiIndexRowMajor) {
  TensorD t({2, 3, 4});
  t(1, 2, 3) = 7.0;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0);
  t(0, 0, 0) = 1.0;
  EXPECT_EQ(t[0], 1.0);
}

TEST(Tensor, FlatIndexMatchesStrides) {
  TensorD t({5, 7});
  EXPECT_EQ(t.flat_index(3, 2), 3 * 7 + 2);
}

TEST(Tensor, ReshapePreservesData) {
  TensorD t({2, 6});
  for (index_t i = 0; i < 12; ++i) t[i] = static_cast<double>(i);
  t.reshape({3, 4});
  EXPECT_EQ(t(2, 3), 11.0);
  EXPECT_EQ(t.dim(0), 3);
}

TEST(Tensor, ReshapeBadCountThrows) {
  TensorD t({2, 3});
  EXPECT_THROW(t.reshape({4, 2}), CheckError);
}

TEST(Tensor, ElementwiseOps) {
  TensorD a({4}, 2.0), b({4}, 3.0);
  a += b;
  EXPECT_EQ(a[0], 5.0);
  a -= b;
  EXPECT_EQ(a[1], 2.0);
  a *= 4.0;
  EXPECT_EQ(a[2], 8.0);
  a.add_scaled(b, 0.5);
  EXPECT_EQ(a[3], 9.5);
}

TEST(Tensor, Reductions) {
  TensorD t({4});
  t[0] = 1.0; t[1] = -2.0; t[2] = 3.0; t[3] = -4.0;
  EXPECT_DOUBLE_EQ(t.sum(), -2.0);
  EXPECT_DOUBLE_EQ(t.mean(), -0.5);
  EXPECT_DOUBLE_EQ(t.squared_norm(), 30.0);
  EXPECT_DOUBLE_EQ(t.norm(), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(t.max_abs(), 4.0);
}

TEST(Tensor, RandomFills) {
  Rng rng(5);
  TensorD t({10000});
  t.fill_uniform(rng, -1.0, 1.0);
  EXPECT_NEAR(t.mean(), 0.0, 0.05);
  for (index_t i = 0; i < t.size(); ++i) {
    ASSERT_GE(t[i], -1.0);
    ASSERT_LT(t[i], 1.0);
  }
  t.fill_normal(rng, 0.0, 2.0);
  EXPECT_NEAR(t.squared_norm() / static_cast<double>(t.size()), 4.0, 0.2);
}

TEST(Tensor, CastConvertsTypes) {
  TensorD d({3}, 1.5);
  const TensorF f = cast<float>(d);
  EXPECT_EQ(f[0], 1.5f);
  EXPECT_EQ(f.shape(), d.shape());
}

TEST(Tensor, ComplexTensor) {
  TensorCF t({2, 2});
  t(0, 1) = {1.0f, -2.0f};
  EXPECT_EQ(t[1].real(), 1.0f);
  EXPECT_EQ(t[1].imag(), -2.0f);
}

// --- GEMM reference checks ------------------------------------------------

template <typename T>
void naive_gemm(index_t m, index_t n, index_t k, const T* a, const T* b,
                T* c) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      T acc{};
      for (index_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, NnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(91);
  TensorD a({m, k}), b({k, n}), c({m, n}), ref({m, n});
  a.fill_normal(rng, 0.0, 1.0);
  b.fill_normal(rng, 0.0, 1.0);
  gemm_nn<double>(m, n, k, 1.0, a.data(), k, b.data(), n, 0.0, c.data(), n);
  naive_gemm<double>(m, n, k, a.data(), b.data(), ref.data());
  for (index_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-12 * std::max(1.0, std::abs(ref[i])));
  }
}

TEST_P(GemmSizes, TnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(92);
  TensorD at({k, m}), b({k, n}), c({m, n}), ref({m, n});
  at.fill_normal(rng, 0.0, 1.0);
  b.fill_normal(rng, 0.0, 1.0);
  // Build A = atᵀ explicitly for the reference.
  TensorD a({m, k});
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < k; ++p) a(i, p) = at(p, i);
  }
  gemm_tn<double>(m, n, k, 1.0, at.data(), m, b.data(), n, 0.0, c.data(), n);
  naive_gemm<double>(m, n, k, a.data(), b.data(), ref.data());
  for (index_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-12 * std::max(1.0, std::abs(ref[i])));
  }
}

TEST_P(GemmSizes, NtMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(93);
  TensorD a({m, k}), bt({n, k}), c({m, n}), ref({m, n});
  a.fill_normal(rng, 0.0, 1.0);
  bt.fill_normal(rng, 0.0, 1.0);
  TensorD b({k, n});
  for (index_t p = 0; p < k; ++p) {
    for (index_t j = 0; j < n; ++j) b(p, j) = bt(j, p);
  }
  gemm_nt<double>(m, n, k, 1.0, a.data(), k, bt.data(), k, 0.0, c.data(), n);
  naive_gemm<double>(m, n, k, a.data(), b.data(), ref.data());
  for (index_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-12 * std::max(1.0, std::abs(ref[i])));
  }
}

// n values straddle the kPanel = 8 register tile: exact multiples (8, 64,
// 24), panel + tail (17, 23), tail only (1, 5, 7, 9), and both k parities
// for the unroll-by-two loop.
INSTANTIATE_TEST_SUITE_P(Shapes, GemmSizes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 5, 7},
                                           std::tuple{8, 8, 8},
                                           std::tuple{16, 1, 32},
                                           std::tuple{1, 64, 5},
                                           std::tuple{33, 17, 9},
                                           std::tuple{2, 24, 3},
                                           std::tuple{4, 23, 6},
                                           std::tuple{5, 9, 1}));

TEST(Gemm, BetaVariantsMatchNaive) {
  // beta ∈ {0, 1, 2} hits the three accumulator-initialisation branches of
  // the panel kernel (and the hoisted branch pair in gemm_nt); n = 19 makes
  // both the panel body and the tail run.
  const index_t m = 6, n = 19, k = 5;
  Rng rng(94);
  TensorD a({m, k}), b({k, n}), at({k, m}), bt({n, k});
  a.fill_normal(rng, 0.0, 1.0);
  b.fill_normal(rng, 0.0, 1.0);
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < k; ++p) at(p, i) = a(i, p);
  }
  for (index_t p = 0; p < k; ++p) {
    for (index_t j = 0; j < n; ++j) bt(j, p) = b(p, j);
  }
  TensorD prod({m, n});
  naive_gemm<double>(m, n, k, a.data(), b.data(), prod.data());
  for (const double beta : {0.0, 1.0, 2.0}) {
    const double alpha = 1.5;
    TensorD c0({m, n});
    Rng crng(95);
    c0.fill_normal(crng, 0.0, 1.0);
    for (int variant = 0; variant < 3; ++variant) {
      TensorD c = c0;
      switch (variant) {
        case 0:
          gemm_nn<double>(m, n, k, alpha, a.data(), k, b.data(), n, beta,
                          c.data(), n);
          break;
        case 1:
          gemm_tn<double>(m, n, k, alpha, at.data(), m, b.data(), n, beta,
                          c.data(), n);
          break;
        default:
          gemm_nt<double>(m, n, k, alpha, a.data(), k, bt.data(), k, beta,
                          c.data(), n);
          break;
      }
      for (index_t i = 0; i < c.size(); ++i) {
        const double ref = alpha * prod[i] + beta * c0[i];
        ASSERT_NEAR(c[i], ref, 1e-12 * std::max(1.0, std::abs(ref)))
            << "variant " << variant << " beta " << beta << " i " << i;
      }
    }
  }
}

/// Scalar nt kernel, verbatim: per output element a single accumulator over
/// ascending p with alpha (and beta) applied once at the end. The panel
/// kernel in gemm.hpp must reproduce this bit-for-bit.
template <typename T>
void scalar_gemm_nt(index_t m, index_t n, index_t k, T alpha, const T* a,
                    index_t lda, const T* b, index_t ldb, T beta, T* c,
                    index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    const T* ai = a + i * lda;
    T* ci = c + i * ldc;
    for (index_t j = 0; j < n; ++j) {
      const T* bj = b + j * ldb;
      T acc{};
      for (index_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = beta == T{0} ? alpha * acc : alpha * acc + beta * ci[j];
    }
  }
}

/// Checks the panel kernel against the TU-local scalar reference bit for
/// bit. The compiler fuses no multiply-add on its own (src/CMakeLists.txt),
/// so the reference rounds in this TU exactly as the kernel does in
/// gemm.hpp's.
template <typename T, typename Tensor>
void check_nt_bit_equal(index_t m, index_t n, index_t k) {
  Rng rng(1000 + static_cast<std::uint64_t>(m * 131 + n * 17 + k));
  Tensor a({std::max<index_t>(m, 1), std::max<index_t>(k, 1)});
  Tensor bt({std::max<index_t>(n, 1), std::max<index_t>(k, 1)});
  a.fill_normal(rng, 0.0, 1.0);
  bt.fill_normal(rng, 0.0, 1.0);
  for (const double beta_d : {0.0, 1.0, 2.0}) {
    const T alpha = static_cast<T>(1.25);
    const T beta = static_cast<T>(beta_d);
    Tensor c0({std::max<index_t>(m, 1), std::max<index_t>(n, 1)});
    Rng crng(7);
    c0.fill_normal(crng, 0.0, 1.0);
    Tensor got = c0, want = c0;
    gemm_nt<T>(m, n, k, alpha, a.data(), k, bt.data(), k, beta, got.data(), n);
    scalar_gemm_nt<T>(m, n, k, alpha, a.data(), k, bt.data(), k, beta,
                      want.data(), n);
    for (index_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&got[i], &want[i], sizeof(T)))
          << "m=" << m << " n=" << n << " k=" << k << " beta=" << beta_d
          << " i=" << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

TEST(Gemm, NtPanelBitEqualsScalar) {
  // Pin the scalar kernels: the bitwise claim under test is per-ISA, and
  // under avx2 the nt kernel intentionally uses a different (vector-lane)
  // reduction order.
  util::ScopedIsa forced(util::Isa::kScalar);
  // n straddles the 8-wide panel: below (5), exact (8, 16), panel+tail
  // (9, 23, 33); k odd/even exercises the unroll-2 remainder.
  for (const auto& [m, n, k] :
       {std::tuple<index_t, index_t, index_t>{1, 5, 7},
        {3, 8, 4},
        {2, 9, 5},
        {4, 16, 1},
        {5, 23, 12},
        {7, 33, 9},
        {1, 64, 10}}) {
    check_nt_bit_equal<float, TensorF>(m, n, k);
    check_nt_bit_equal<double, TensorD>(m, n, k);
  }
}

TEST(Gemm, AlphaBetaAccumulate) {
  const index_t m = 2, n = 2, k = 2;
  TensorD a({m, k}, 1.0), b({k, n}, 1.0), c({m, n}, 10.0);
  gemm_nn<double>(m, n, k, 2.0, a.data(), k, b.data(), n, 1.0, c.data(), n);
  // c = 2*(1*1+1*1) + 10 = 14
  for (index_t i = 0; i < c.size(); ++i) EXPECT_DOUBLE_EQ(c[i], 14.0);
}

TEST(Gemm, FloatInstantiation) {
  const index_t m = 4, n = 4, k = 4;
  TensorF a({m, k}, 1.0f), b({k, n}, 2.0f), c({m, n});
  gemm_nn<float>(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  for (index_t i = 0; i < c.size(); ++i) EXPECT_FLOAT_EQ(c[i], 8.0f);
}

}  // namespace
}  // namespace turb
