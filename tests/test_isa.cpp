// Determinism-tier contract of the util::isa dispatch layer (ISSUE 7,
// DESIGN.md "Determinism tiers"):
//
//   * Tier B (bounded, cross-ISA): for every vectorized kernel family —
//     gemm_nn/gemm_tn/gemm_nt, the radix-2 c2c butterflies (incl. the
//     Bluestein fallback, which reaches them through its power-of-two
//     sub-plan), and the rfft/irfft unpack — the scalar and AVX2 results
//     agree within a small multiple of the rounding error of the
//     accumulation depth. The property suites run odd/edge-tail shapes so
//     every vector-width remainder path (32/16/8/4-wide groups and scalar
//     tails) is exercised.
//   * Tier A (bitwise, per ISA): with the ISA pinned by ScopedIsa, kernel
//     results are bitwise identical across pool widths 1/2/4, and masked
//     (mode-pruned) rfft transforms are bitwise identical to unmasked ones
//     on the kept bins.
//   * GELU (nn::gelu_tile) is bitwise equal across ISAs, not just bounded:
//     both tiers evaluate the same rational erf without FMA, and every
//     element equals the scalar expression wherever it sits in a row
//     (test_nn.cpp sweeps the finite floats under both tiers).
//
// Every avx2-side test skips (GTEST_SKIP) when the CPU lacks AVX2+FMA, so
// the suite is green on any host under both forced TURBFNO_ISA settings.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "fft/plan.hpp"
#include "fft/fftnd.hpp"
#include "fft/real.hpp"
#include "nn/activation.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

bool avx2_available() { return util::cpu_supports_avx2(); }

#define SKIP_WITHOUT_AVX2()                                            \
  if (!avx2_available()) {                                             \
    GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar is the only ISA here"; \
  }

// ---------------------------------------------------------------------------
// Dispatch-layer unit tests
// ---------------------------------------------------------------------------

TEST(IsaLayer, ParseAndName) {
  EXPECT_EQ(util::parse_isa("scalar"), util::Isa::kScalar);
  EXPECT_STREQ(util::isa_name(util::Isa::kScalar), "scalar");
  EXPECT_STREQ(util::isa_name(util::Isa::kAvx2), "avx2");
  EXPECT_THROW((void)util::parse_isa("sse9"), CheckError);
  if (avx2_available()) {
    EXPECT_EQ(util::parse_isa("avx2"), util::Isa::kAvx2);
    EXPECT_EQ(util::parse_isa("auto"), util::Isa::kAvx2);
  } else {
    EXPECT_THROW((void)util::parse_isa("avx2"), CheckError);
    EXPECT_EQ(util::parse_isa("auto"), util::Isa::kScalar);
  }
}

TEST(IsaLayer, ActiveIsaIsAlwaysRunnable) {
  const util::Isa isa = util::active_isa();
  if (isa == util::Isa::kAvx2) {
    EXPECT_TRUE(avx2_available());
  }
}

TEST(IsaLayer, ScopedIsaForcesAndRestores) {
  const util::Isa before = util::active_isa();
  {
    util::ScopedIsa forced(util::Isa::kScalar);
    EXPECT_EQ(util::active_isa(), util::Isa::kScalar);
    if (avx2_available()) {
      util::ScopedIsa nested(util::Isa::kAvx2);
      EXPECT_EQ(util::active_isa(), util::Isa::kAvx2);
    }
    EXPECT_EQ(util::active_isa(), util::Isa::kScalar);
  }
  EXPECT_EQ(util::active_isa(), before);
}

TEST(IsaLayer, DispatchCountersAdvance) {
  util::ScopedIsa forced(util::Isa::kScalar);
  const double gemm0 = util::gemm_dispatch_counter(util::Isa::kScalar).value();
  std::vector<float> a(4, 1.0f), b(4, 2.0f), c(4, 0.0f);
  gemm_nn<float>(2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2);
  EXPECT_GT(util::gemm_dispatch_counter(util::Isa::kScalar).value(), gemm0);

  // The GELU kernel dispatches once per tile, whatever its size.
  std::vector<float> tile(3 * 20, 0.5f), bias(3, 0.25f);
  const std::int64_t gelu0 =
      util::gelu_dispatch_counter(util::Isa::kScalar).value();
  nn::gelu_tile(tile.data(), 3, 20, 20, bias.data());
  EXPECT_EQ(util::gelu_dispatch_counter(util::Isa::kScalar).value(),
            gelu0 + 1);
  if (avx2_available()) {
    util::ScopedIsa vector(util::Isa::kAvx2);
    const std::int64_t avx0 =
        util::gelu_dispatch_counter(util::Isa::kAvx2).value();
    nn::gelu_tile(tile.data(), 3, 20, 20, bias.data());
    EXPECT_EQ(util::gelu_dispatch_counter(util::Isa::kAvx2).value(),
              avx0 + 1);
    EXPECT_EQ(util::gelu_dispatch_counter(util::Isa::kScalar).value(),
              gelu0 + 1);
  }
}

// ---------------------------------------------------------------------------
// Tier B: GEMM scalar vs AVX2
// ---------------------------------------------------------------------------

struct GemmShape {
  index_t m, n, k;
};

// Shapes straddling every panel-width boundary: n < 8 (pure scalar tail),
// n = 8/16/32/64 (exact vector groups), and odd n with 32-, 8-, and
// sub-8-wide remainders; k odd, even, and 1.
const GemmShape kShapes[] = {{1, 5, 7},   {3, 8, 4},   {2, 9, 5},
                             {4, 16, 1},  {5, 23, 12}, {7, 33, 9},
                             {1, 64, 10}, {13, 17, 19}, {2, 70, 3},
                             {6, 40, 33}};

/// |scalar − avx2| for one C element must stay within a few rounding units
/// of the accumulation: every one of the k multiply-adds (plus the beta
/// term) can shift by one ulp of the running magnitude when FMA fuses it.
template <typename T>
void expect_tier_b(const std::vector<T>& ref, const std::vector<T>& alt,
                   const std::vector<double>& scale, const char* what) {
  constexpr double eps = std::numeric_limits<T>::epsilon();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double bound = 4.0 * eps * scale[i] +
                         4.0 * std::numeric_limits<T>::min();
    EXPECT_NEAR(static_cast<double>(ref[i]), static_cast<double>(alt[i]),
                bound)
        << what << " element " << i;
  }
}

enum class GemmKind { kNn, kTn, kNt };

template <typename T>
void run_gemm(GemmKind kind, const GemmShape& s, T alpha, T beta,
              const std::vector<T>& a, const std::vector<T>& b,
              std::vector<T>& c) {
  switch (kind) {
    case GemmKind::kNn:
      gemm_nn(s.m, s.n, s.k, alpha, a.data(), s.k, b.data(), s.n, beta,
              c.data(), s.n);
      break;
    case GemmKind::kTn:
      gemm_tn(s.m, s.n, s.k, alpha, a.data(), s.m, b.data(), s.n, beta,
              c.data(), s.n);
      break;
    case GemmKind::kNt:
      gemm_nt(s.m, s.n, s.k, alpha, a.data(), s.k, b.data(), s.k, beta,
              c.data(), s.n);
      break;
  }
}

template <typename T>
void gemm_tier_b_case(GemmKind kind, const GemmShape& s, T alpha, T beta,
                      std::uint64_t seed, const char* what) {
  Rng rng(seed);
  const bool a_transposed = kind == GemmKind::kTn;
  const bool b_transposed = kind == GemmKind::kNt;
  std::vector<T> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<T> b(static_cast<std::size_t>(s.k * s.n));
  std::vector<T> c0(static_cast<std::size_t>(s.m * s.n));
  for (auto& v : a) v = static_cast<T>(rng.normal());
  for (auto& v : b) v = static_cast<T>(rng.normal());
  for (auto& v : c0) v = static_cast<T>(rng.normal());

  // Per-element magnitude of the accumulation, in double: Σ_p |α·a·b| per
  // rounding step plus the beta term, times the number of steps.
  const auto a_at = [&](index_t i, index_t p) {
    return a[static_cast<std::size_t>(a_transposed ? p * s.m + i
                                                   : i * s.k + p)];
  };
  const auto b_at = [&](index_t p, index_t j) {
    return b[static_cast<std::size_t>(b_transposed ? j * s.k + p
                                                   : p * s.n + j)];
  };
  std::vector<double> scale(c0.size());
  for (index_t i = 0; i < s.m; ++i) {
    for (index_t j = 0; j < s.n; ++j) {
      double mag = std::abs(static_cast<double>(beta) *
                            c0[static_cast<std::size_t>(i * s.n + j)]);
      for (index_t p = 0; p < s.k; ++p) {
        mag += std::abs(static_cast<double>(alpha) * a_at(i, p) * b_at(p, j));
      }
      scale[static_cast<std::size_t>(i * s.n + j)] =
          static_cast<double>(s.k + 2) * mag;
    }
  }

  std::vector<T> c_scalar = c0;
  {
    util::ScopedIsa forced(util::Isa::kScalar);
    run_gemm(kind, s, alpha, beta, a, b, c_scalar);
  }
  std::vector<T> c_avx2 = c0;
  {
    util::ScopedIsa forced(util::Isa::kAvx2);
    run_gemm(kind, s, alpha, beta, a, b, c_avx2);
  }
  expect_tier_b(c_scalar, c_avx2, scale, what);
}

class GemmIsaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GemmIsaEquivalence, ScalarVsAvx2WithinTierB) {
  SKIP_WITHOUT_AVX2();
  const GemmShape s = kShapes[GetParam()];
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(GetParam());
  int variant = 0;
  for (const GemmKind kind : {GemmKind::kNn, GemmKind::kTn, GemmKind::kNt}) {
    for (const double beta : {0.0, 1.0, 0.5}) {
      ++variant;
      gemm_tier_b_case<float>(kind, s, 1.25f, static_cast<float>(beta),
                              seed * 100 + static_cast<std::uint64_t>(variant),
                              "float gemm");
      gemm_tier_b_case<double>(kind, s, 1.25, beta,
                               seed * 100 +
                                   static_cast<std::uint64_t>(50 + variant),
                               "double gemm");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmIsaEquivalence,
                         ::testing::Range(0, static_cast<int>(std::size(
                                                 kShapes))));

// ---------------------------------------------------------------------------
// Tier B: c2c FFT scalar vs AVX2 (pow2 butterflies + Bluestein fallback)
// ---------------------------------------------------------------------------

class FftIsaEquivalence : public ::testing::TestWithParam<index_t> {};

TEST_P(FftIsaEquivalence, ForwardAndInverseWithinTierB) {
  SKIP_WITHOUT_AVX2();
  const index_t n = GetParam();
  Rng rng(7000 + static_cast<std::uint64_t>(n));
  std::vector<std::complex<float>> x(static_cast<std::size_t>(n));
  double sum_abs = 0.0;
  for (auto& v : x) {
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
    sum_abs += std::abs(std::complex<double>(v));
  }
  // Accumulation depth: log2 of the (sub-)transform length, with extra
  // headroom for the three chirp products and two transforms of the
  // Bluestein path. Every output bin is a ±1-weighted sum of the inputs, so
  // Σ|x| bounds the running magnitude at every stage.
  const index_t m = fft::is_pow2(n) ? n : fft::next_pow2(2 * n - 1);
  const double depth = 3.0 * (std::log2(static_cast<double>(m)) + 4.0);
  const double eps = std::numeric_limits<float>::epsilon();
  const double bound = 4.0 * eps * depth * sum_abs;

  fft::PlanC2C<float> plan(n);
  for (const bool inverse : {false, true}) {
    std::vector<std::complex<float>> y_scalar = x;
    {
      util::ScopedIsa forced(util::Isa::kScalar);
      inverse ? plan.inverse(y_scalar.data()) : plan.forward(y_scalar.data());
    }
    std::vector<std::complex<float>> y_avx2 = x;
    {
      util::ScopedIsa forced(util::Isa::kAvx2);
      inverse ? plan.inverse(y_avx2.data()) : plan.forward(y_avx2.data());
    }
    const double dir_bound =
        inverse ? bound / static_cast<double>(n) : bound;
    for (index_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(std::complex<double>(y_scalar[k]) -
                           std::complex<double>(y_avx2[k])),
                  0.0, dir_bound)
          << "n=" << n << " inverse=" << inverse << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftIsaEquivalence,
                         ::testing::Values(2, 4, 8, 16, 64, 128, 256,
                                           // Bluestein lengths
                                           6, 10, 12, 20));

// ---------------------------------------------------------------------------
// Tier B: rfft / irfft scalar vs AVX2
// ---------------------------------------------------------------------------

class RealFftIsaEquivalence : public ::testing::TestWithParam<index_t> {};

TEST_P(RealFftIsaEquivalence, RfftAndIrfftWithinTierB) {
  SKIP_WITHOUT_AVX2();
  const index_t n = GetParam();
  const index_t h = n / 2;
  Rng rng(9000 + static_cast<std::uint64_t>(n));
  std::vector<float> in(static_cast<std::size_t>(n));
  double sum_abs = 0.0;
  for (auto& v : in) {
    v = static_cast<float>(rng.normal());
    sum_abs += std::abs(static_cast<double>(v));
  }
  const index_t m = (h == 0 || fft::is_pow2(h)) ? std::max<index_t>(h, 1)
                                                : fft::next_pow2(2 * h - 1);
  const double depth =
      3.0 * (std::log2(static_cast<double>(std::max<index_t>(m, 2))) + 6.0);
  const double eps = std::numeric_limits<float>::epsilon();
  const double bound = 4.0 * eps * depth * sum_abs;

  const auto run_rfft = [&](util::Isa isa) {
    util::ScopedIsa forced(isa);
    std::vector<std::complex<float>> out(static_cast<std::size_t>(h + 1));
    fft::rfft(in.data(), out.data(), n);
    return out;
  };
  const auto spec_scalar = run_rfft(util::Isa::kScalar);
  const auto spec_avx2 = run_rfft(util::Isa::kAvx2);
  for (index_t k = 0; k <= h; ++k) {
    EXPECT_NEAR(std::abs(std::complex<double>(spec_scalar[k]) -
                         std::complex<double>(spec_avx2[k])),
                0.0, bound)
        << "rfft n=" << n << " k=" << k;
  }

  // irfft: feed the scalar spectrum to both ISAs; spectrum magnitude is
  // O(Σ|x|) per bin, and the inverse renormalises by 1/n.
  const auto run_irfft = [&](util::Isa isa) {
    util::ScopedIsa forced(isa);
    std::vector<float> out(static_cast<std::size_t>(n));
    fft::irfft(spec_scalar.data(), out.data(), n);
    return out;
  };
  const auto time_scalar = run_irfft(util::Isa::kScalar);
  const auto time_avx2 = run_irfft(util::Isa::kAvx2);
  for (index_t k = 0; k < n; ++k) {
    EXPECT_NEAR(static_cast<double>(time_scalar[k]),
                static_cast<double>(time_avx2[k]), bound)
        << "irfft n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RealFftIsaEquivalence,
                         ::testing::Values(2, 4, 6, 8, 10, 16, 20, 40, 64,
                                           128));

// ---------------------------------------------------------------------------
// Tier A: masked rfft bitwise-identical to full on kept bins, per ISA
// ---------------------------------------------------------------------------

void check_masked_rfft_bitwise(util::Isa isa) {
  util::ScopedIsa forced(isa);
  for (const index_t n : {index_t{16}, index_t{64}, index_t{20}}) {
    const index_t h = n / 2;
    Rng rng(1300 + static_cast<std::uint64_t>(n));
    std::vector<float> in(static_cast<std::size_t>(n));
    for (auto& v : in) v = static_cast<float>(rng.normal());
    std::vector<std::complex<float>> full(static_cast<std::size_t>(h + 1));
    fft::rfft(in.data(), full.data(), n);
    // Keep a ragged subset: bins 0, odd bins, and the Nyquist bin.
    std::vector<std::uint8_t> keep(static_cast<std::size_t>(h + 1), 0);
    for (index_t k = 0; k <= h; ++k) {
      keep[static_cast<std::size_t>(k)] =
          (k == 0 || k == h || (k % 2) == 1) ? 1 : 0;
    }
    const std::complex<float> sentinel(1e30f, -1e30f);
    std::vector<std::complex<float>> masked(static_cast<std::size_t>(h + 1),
                                            sentinel);
    fft::rfft(in.data(), masked.data(), n, keep.data());
    for (index_t k = 0; k <= h; ++k) {
      if (keep[static_cast<std::size_t>(k)]) {
        EXPECT_EQ(0, std::memcmp(&full[static_cast<std::size_t>(k)],
                                 &masked[static_cast<std::size_t>(k)],
                                 sizeof(std::complex<float>)))
            << util::isa_name(isa) << " n=" << n << " kept bin " << k;
      } else {
        EXPECT_EQ(0, std::memcmp(&sentinel,
                                 &masked[static_cast<std::size_t>(k)],
                                 sizeof(std::complex<float>)))
            << util::isa_name(isa) << " n=" << n << " skipped bin " << k
            << " was written";
      }
    }
  }
}

TEST(IsaTierA, MaskedRfftBitwiseScalar) {
  check_masked_rfft_bitwise(util::Isa::kScalar);
}

TEST(IsaTierA, MaskedRfftBitwiseAvx2) {
  SKIP_WITHOUT_AVX2();
  check_masked_rfft_bitwise(util::Isa::kAvx2);
}

// ---------------------------------------------------------------------------
// Tier A: bitwise identity across pool widths 1/2/4, per forced ISA
// ---------------------------------------------------------------------------

void check_gemm_thread_invariance(util::Isa isa) {
  util::ScopedIsa forced(isa);
  // Large enough to trip the row-parallel path (m·n·k ≥ 2^15, m ≥ 2), with
  // a ragged n so vector groups, 8-wide panels and scalar tails all appear.
  const index_t m = 8, n = 70, k = 64;
  Rng rng(17);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  std::vector<std::vector<float>> results;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
    results.push_back(std::move(c));
  }
  for (std::size_t w = 1; w < results.size(); ++w) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[w].data(),
                             results[0].size() * sizeof(float)))
        << util::isa_name(isa) << " gemm diverged at width index " << w;
  }
}

void check_rfftn_thread_invariance(util::Isa isa) {
  util::ScopedIsa forced(isa);
  Tensor<float> x({2, 3, 16, 16});
  Rng rng(23);
  for (index_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal());
  }
  std::vector<Tensor<std::complex<float>>> specs;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    specs.push_back(fft::rfftn(x, 2));
  }
  for (std::size_t w = 1; w < specs.size(); ++w) {
    ASSERT_EQ(specs[0].shape(), specs[w].shape());
    EXPECT_EQ(0, std::memcmp(specs[0].data(), specs[w].data(),
                             static_cast<std::size_t>(specs[0].size()) *
                                 sizeof(std::complex<float>)))
        << util::isa_name(isa) << " rfftn diverged at width index " << w;
  }
}

TEST(IsaTierA, GemmBitwiseAcrossThreadsScalar) {
  check_gemm_thread_invariance(util::Isa::kScalar);
}

TEST(IsaTierA, GemmBitwiseAcrossThreadsAvx2) {
  SKIP_WITHOUT_AVX2();
  check_gemm_thread_invariance(util::Isa::kAvx2);
}

TEST(IsaTierA, RfftnBitwiseAcrossThreadsScalar) {
  check_rfftn_thread_invariance(util::Isa::kScalar);
}

TEST(IsaTierA, RfftnBitwiseAcrossThreadsAvx2) {
  SKIP_WITHOUT_AVX2();
  check_rfftn_thread_invariance(util::Isa::kAvx2);
}

// ---------------------------------------------------------------------------
// GELU: bitwise equal across ISAs
// ---------------------------------------------------------------------------

/// Every element of a tile equals the scalar expression on its own
/// operands: rows of 1–17 columns put each value at every offset 0–8, in
/// vector lanes and in row tails, for the bias and the skip forms, with row
/// strides wider than the rows.
void check_gelu_offsets(util::Isa isa) {
  util::ScopedIsa forced(isa);
  Rng rng(61);
  std::vector<float> values(29);
  for (auto& v : values) v = static_cast<float>(4.0 * rng.normal());
  constexpr index_t rows = 3;
  const float bias[rows] = {0.375f, -1.25f, 0.0f};
  for (index_t cols = 1; cols <= 17; ++cols) {
    const index_t ld = cols + 3, ld_skip = cols + 5;
    for (index_t shift = 0; shift <= 8; ++shift) {
      std::vector<float> x(static_cast<std::size_t>(rows * ld));
      std::vector<float> skip(static_cast<std::size_t>(rows * ld_skip));
      for (index_t r = 0; r < rows; ++r) {
        for (index_t j = 0; j < cols; ++j) {
          const std::size_t v =
              static_cast<std::size_t>(r * 7 + j + shift) % values.size();
          x[static_cast<std::size_t>(r * ld + j)] = values[v];
          skip[static_cast<std::size_t>(r * ld_skip + j)] =
              values[(v + 11) % values.size()];
        }
      }
      std::vector<float> with_bias = x, with_skip = x;
      nn::gelu_tile(with_bias.data(), rows, cols, ld, bias);
      nn::gelu_tile(with_skip.data(), rows, cols, ld, bias, skip.data(),
                    ld_skip);
      for (index_t r = 0; r < rows; ++r) {
        for (index_t j = 0; j < cols; ++j) {
          const auto i = static_cast<std::size_t>(r * ld + j);
          const float s = skip[static_cast<std::size_t>(r * ld_skip + j)];
          const float want_bias = nn::gelu(x[i] + bias[r]);
          const float want_skip = nn::gelu(x[i] + (s + bias[r]));
          EXPECT_EQ(0, std::memcmp(&with_bias[i], &want_bias, sizeof(float)))
              << util::isa_name(isa) << " bias form, cols=" << cols
              << " row " << r << " offset " << j;
          EXPECT_EQ(0, std::memcmp(&with_skip[i], &want_skip, sizeof(float)))
              << util::isa_name(isa) << " skip form, cols=" << cols
              << " row " << r << " offset " << j;
        }
        // Padding between rows is never written.
        for (index_t j = cols; j < ld; ++j) {
          EXPECT_EQ(with_bias[static_cast<std::size_t>(r * ld + j)], 0.0f);
          EXPECT_EQ(with_skip[static_cast<std::size_t>(r * ld + j)], 0.0f);
        }
      }
    }
  }
}

TEST(IsaTierA, GeluSameBitsAtEveryOffsetScalar) {
  check_gelu_offsets(util::Isa::kScalar);
}

TEST(IsaTierA, GeluSameBitsAtEveryOffsetAvx2) {
  SKIP_WITHOUT_AVX2();
  check_gelu_offsets(util::Isa::kAvx2);
}

}  // namespace
}  // namespace turb
