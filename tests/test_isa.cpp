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
//   * Pinned avx2 bytes: the outputs of every avx2 FFT and GEMM entry point
//     on seeded inputs feed one CRC-32 that must equal a recorded constant.
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
#include "util/checksum.hpp"
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
  TensorF in({n});
  double sum_abs = 0.0;
  for (index_t i = 0; i < n; ++i) {
    in[i] = static_cast<float>(rng.normal());
    sum_abs += std::abs(static_cast<double>(in[i]));
  }
  const index_t m = (h == 0 || fft::is_pow2(h)) ? std::max<index_t>(h, 1)
                                                : fft::next_pow2(2 * h - 1);
  const double depth =
      3.0 * (std::log2(static_cast<double>(std::max<index_t>(m, 2))) + 6.0);
  const double eps = std::numeric_limits<float>::epsilon();
  const double bound = 4.0 * eps * depth * sum_abs;

  // One row: a rank-1 tensor at ndim 1.
  const auto run_rfft = [&](util::Isa isa) {
    util::ScopedIsa forced(isa);
    return fft::rfftn(in, 1);
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
    return fft::irfftn(spec_scalar, 1, n);
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
    TensorF in({n});
    for (index_t i = 0; i < n; ++i) in[i] = static_cast<float>(rng.normal());
    // One row: a rank-1 tensor at ndim 1.
    const Tensor<std::complex<float>> full = fft::rfftn(in, 1);
    // Keep a ragged subset: bins 0, odd bins, and the Nyquist bin.
    fft::ModeMask keep(1, std::vector<std::uint8_t>(
                              static_cast<std::size_t>(h + 1), 0));
    for (index_t k = 0; k <= h; ++k) {
      keep[0][static_cast<std::size_t>(k)] =
          (k == 0 || k == h || (k % 2) == 1) ? 1 : 0;
    }
    const std::complex<float> sentinel(1e30f, -1e30f);
    Tensor<std::complex<float>> masked({h + 1}, sentinel);
    fft::rfftn_into(in, 1, masked, &keep);
    for (index_t k = 0; k <= h; ++k) {
      if (keep[0][static_cast<std::size_t>(k)]) {
        EXPECT_EQ(0, std::memcmp(&full[k], &masked[k],
                                 sizeof(std::complex<float>)))
            << util::isa_name(isa) << " n=" << n << " kept bin " << k;
      } else {
        EXPECT_EQ(0, std::memcmp(&sentinel, &masked[k],
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
// Tier A: the avx2 FFT and GEMM kernels' bytes pinned to a recorded CRC
// ---------------------------------------------------------------------------
//
// The suites above compare the avx2 kernels with each other or with scalar
// within a bound, so a change that moved both sides the same way would pass
// them. This one feeds the outputs of seeded inputs through every avx2 FFT
// and GEMM entry point into one CRC-32 and compares it with a constant.

template <typename V>
void feed(util::Crc32& crc, const std::vector<V>& v) {
  crc.update(v.data(), v.size() * sizeof(V));
}

template <typename T>
std::vector<std::complex<T>> random_complex(Rng& rng, index_t n) {
  std::vector<std::complex<T>> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = {static_cast<T>(rng.normal()), static_cast<T>(rng.normal())};
  }
  return v;
}

template <typename T>
void fingerprint_c2c(util::Crc32& crc) {
  using cpx = std::complex<T>;
  Rng rng(4100 + sizeof(T));
  // Single lines: every length, so each stage narrower than a vector and
  // every Bluestein sub-plan runs.
  for (index_t n = 2; n <= 256; ++n) {
    const fft::PlanC2C<T> plan(n);
    const std::vector<cpx> x = random_complex<T>(rng, n);
    for (const bool inverse : {false, true}) {
      std::vector<cpx> y = x;
      inverse ? plan.inverse(y.data()) : plan.forward(y.data());
      feed(crc, y);
    }
  }
  // Lane batches: full and ragged lane groups, a scratch block (stride nl)
  // and a column run (stride nl + 5), in place and src != dst.
  for (const index_t n : {2, 8, 32, 128}) {
    const fft::PlanC2C<T> plan(n);
    for (const index_t nl : {1, 3, 4, 5, 17, 32}) {
      for (const index_t stride : {nl, nl + 5}) {
        const std::vector<cpx> src = random_complex<T>(rng, n * stride);
        for (const bool inverse : {false, true}) {
          for (const bool in_place : {true, false}) {
            std::vector<cpx> dst =
                in_place ? src : random_complex<T>(rng, n * stride);
            const cpx* from = in_place ? dst.data() : src.data();
            inverse ? plan.inverse_batch(from, dst.data(), nl, stride)
                    : plan.forward_batch(from, dst.data(), nl, stride);
            feed(crc, dst);
          }
        }
      }
    }
  }
}

template <typename T>
void fingerprint_real(util::Crc32& crc) {
  using cpx = std::complex<T>;
  Rng rng(4200 + sizeof(T));
  const cpx sentinel(T{7}, T{-7});  // what skipped bins leave behind
  for (const index_t n : {4, 8, 10, 16, 64, 256}) {
    const index_t h = n / 2;
    std::vector<cpx> tw_r(static_cast<std::size_t>(h + 1));
    std::vector<cpx> tw_i(static_cast<std::size_t>(h));
    fft::fill_rfft_twiddles(tw_r.data(), n);
    fft::fill_irfft_twiddles(tw_i.data(), n);
    std::vector<std::uint8_t> keep(static_cast<std::size_t>(h + 1));
    for (index_t k = 0; k <= h; ++k) {
      keep[static_cast<std::size_t>(k)] = k % 3 != 1;
    }
    for (const index_t nl : {1, 3, 32}) {
      // Rows wider than the data, as the line drivers hand them in.
      const index_t rs = n + 3, cs = h + 3;
      std::vector<T> real_in(static_cast<std::size_t>(nl * rs));
      for (auto& v : real_in) v = static_cast<T>(rng.normal());
      const std::vector<cpx> spec_in = random_complex<T>(rng, nl * cs);
      std::vector<cpx> z(static_cast<std::size_t>(h * nl));
      std::vector<cpx> u(static_cast<std::size_t>((h + 1) * nl));
      const std::uint8_t* const masks[] = {nullptr, keep.data()};
      for (const std::uint8_t* mask : masks) {
        // Row by row: one-lane row-core calls.
        std::vector<cpx> rows(static_cast<std::size_t>(nl * cs), sentinel);
        for (index_t l = 0; l < nl; ++l) {
          fft::rfft_batch_scratch(real_in.data() + l * rs, rs,
                                  rows.data() + l * cs, cs, n, 1, mask,
                                  z.data(), u.data(), tw_r.data());
        }
        feed(crc, rows);
        std::vector<cpx> batch(static_cast<std::size_t>(nl * cs), sentinel);
        fft::rfft_batch_scratch(real_in.data(), rs, batch.data(), cs, n, nl,
                                mask, z.data(), u.data(), tw_r.data());
        feed(crc, batch);
      }
      std::vector<T> rows(static_cast<std::size_t>(nl * rs), T{0});
      for (index_t l = 0; l < nl; ++l) {
        fft::irfft_batch_scratch(spec_in.data() + l * cs, cs,
                                 rows.data() + l * rs, rs, n, 1, z.data(),
                                 u.data(), tw_i.data());
      }
      feed(crc, rows);
      std::vector<T> batch(static_cast<std::size_t>(nl * rs), T{0});
      fft::irfft_batch_scratch(spec_in.data(), cs, batch.data(), rs, n, nl,
                               z.data(), u.data(), tw_i.data());
      feed(crc, batch);
    }
  }
}

template <typename T>
void fingerprint_gemm(util::Crc32& crc) {
  Rng rng(4300 + sizeof(T));
  // n covers the 4-register groups (32 floats / 16 doubles), single panels
  // (8 / 4) and the scalar tail; k covers the dot's two-chain, one-chain
  // and scalar-remainder steps (16 / 8 / rest floats, 8 / 4 / rest doubles).
  const GemmShape shapes[] = {
      {2, 3, 7}, {3, 8, 27}, {2, 13, 1}, {3, 45, 37}, {2, 70, 20}};
  for (const GemmShape& s : shapes) {
    std::vector<T> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<T> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<T> c0(static_cast<std::size_t>(s.m * s.n));
    for (auto& v : a) v = static_cast<T>(rng.normal());
    for (auto& v : b) v = static_cast<T>(rng.normal());
    for (auto& v : c0) v = static_cast<T>(rng.normal());
    for (const GemmKind kind : {GemmKind::kNn, GemmKind::kTn, GemmKind::kNt}) {
      for (const T beta : {T{0}, T{1}, T{0.5}}) {
        std::vector<T> c = c0;
        run_gemm(kind, s, T{1.25}, beta, a, b, c);
        feed(crc, c);
      }
    }
  }
}

TEST(IsaTierA, Avx2KernelBytesPinned) {
  SKIP_WITHOUT_AVX2();
  util::ScopedIsa forced(util::Isa::kAvx2);
  util::Crc32 crc;
  fingerprint_c2c<float>(crc);
  fingerprint_c2c<double>(crc);
  fingerprint_real<float>(crc);
  fingerprint_real<double>(crc);
  fingerprint_gemm<float>(crc);
  fingerprint_gemm<double>(crc);
  // Recorded on the per-type avx2 kernels that the util/avx2.hpp templates
  // replaced. Regenerate deliberately — never loosen — when the avx2
  // numerics change on purpose.
  EXPECT_EQ(crc.value(), 0x2A5F027Du);
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
