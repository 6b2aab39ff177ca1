#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "fft/fftnd.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fft/workspace.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb::fft {
namespace {

using cpxd = std::complex<double>;

/// O(n²) reference DFT.
std::vector<cpxd> naive_dft(const std::vector<cpxd>& x, bool inverse = false) {
  const auto n = static_cast<index_t>(x.size());
  std::vector<cpxd> out(x.size());
  const double sign = inverse ? 2.0 : -2.0;
  for (index_t k = 0; k < n; ++k) {
    cpxd acc{};
    for (index_t j = 0; j < n; ++j) {
      const double ang = sign * std::numbers::pi * static_cast<double>(j * k) /
                         static_cast<double>(n);
      acc += x[static_cast<std::size_t>(j)] * cpxd(std::cos(ang), std::sin(ang));
    }
    out[static_cast<std::size_t>(k)] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

class FftLengths : public ::testing::TestWithParam<index_t> {};

TEST_P(FftLengths, ForwardMatchesNaiveDft) {
  const index_t n = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(n));
  std::vector<cpxd> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto ref = naive_dft(x);

  std::vector<cpxd> y = x;
  PlanC2C<double> plan(n);
  plan.forward(y.data());
  for (index_t k = 0; k < n; ++k) {
    ASSERT_NEAR(std::abs(y[static_cast<std::size_t>(k)] -
                         ref[static_cast<std::size_t>(k)]),
                0.0, 1e-9 * static_cast<double>(n))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(FftLengths, RoundTripIsIdentity) {
  const index_t n = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(n));
  std::vector<cpxd> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  std::vector<cpxd> y = x;
  PlanC2C<double> plan(n);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t k = 0; k < x.size(); ++k) {
    ASSERT_NEAR(std::abs(y[k] - x[k]), 0.0, 1e-10 * static_cast<double>(n));
  }
}

TEST_P(FftLengths, ParsevalHolds) {
  const index_t n = GetParam();
  Rng rng(300 + static_cast<std::uint64_t>(n));
  std::vector<cpxd> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  PlanC2C<double> plan(n);
  plan.forward(x.data());
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwoAndNot, FftLengths,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 10, 12, 16, 30,
                                           64, 100, 128, 256));

TEST(Fft, DeltaGivesFlatSpectrum) {
  const index_t n = 16;
  std::vector<cpxd> x(16, cpxd{});
  x[0] = 1.0;
  PlanC2C<double> plan(n);
  plan.forward(x.data());
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, PureToneLandsInSingleBin) {
  const index_t n = 64;
  std::vector<cpxd> x(static_cast<std::size_t>(n));
  const index_t mode = 5;
  for (index_t j = 0; j < n; ++j) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(mode * j) /
                       static_cast<double>(n);
    x[static_cast<std::size_t>(j)] = {std::cos(ang), std::sin(ang)};
  }
  PlanC2C<double> plan(n);
  plan.forward(x.data());
  for (index_t k = 0; k < n; ++k) {
    const double expected = (k == mode) ? static_cast<double>(n) : 0.0;
    ASSERT_NEAR(std::abs(x[static_cast<std::size_t>(k)]), expected, 1e-9);
  }
}

TEST(Fft, LinearityProperty) {
  const index_t n = 40;  // Bluestein path
  Rng rng(41);
  std::vector<cpxd> a(static_cast<std::size_t>(n)), b(a), sum(a);
  for (index_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = {rng.normal(), rng.normal()};
    b[static_cast<std::size_t>(i)] = {rng.normal(), rng.normal()};
    sum[static_cast<std::size_t>(i)] = 2.0 * a[static_cast<std::size_t>(i)] -
                                       3.0 * b[static_cast<std::size_t>(i)];
  }
  PlanC2C<double> plan(n);
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (std::size_t k = 0; k < sum.size(); ++k) {
    ASSERT_NEAR(std::abs(sum[k] - (2.0 * a[k] - 3.0 * b[k])), 0.0, 1e-9);
  }
}

TEST(Fft, FloatPrecisionAcceptable) {
  const index_t n = 128;
  Rng rng(55);
  std::vector<std::complex<float>> x(static_cast<std::size_t>(n));
  std::vector<cpxd> xd(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const double re = rng.normal(), im = rng.normal();
    x[static_cast<std::size_t>(i)] = {static_cast<float>(re),
                                      static_cast<float>(im)};
    xd[static_cast<std::size_t>(i)] = {re, im};
  }
  PlanC2C<float> plan(n);
  plan.forward(x.data());
  const auto ref = naive_dft(xd);
  for (std::size_t k = 0; k < x.size(); ++k) {
    ASSERT_NEAR(std::abs(cpxd(x[k]) - ref[k]), 0.0, 1e-3);
  }
}

// --- real transforms -------------------------------------------------------
//
// One-row transforms go through the Tensor entry points at ndim 1: a rank-1
// tensor is a single rfft/irfft row.

class RfftLengths : public ::testing::TestWithParam<index_t> {};

TEST_P(RfftLengths, MatchesNaiveRealDft) {
  const index_t n = GetParam();
  Rng rng(400 + static_cast<std::uint64_t>(n));
  TensorD x({n});
  std::vector<cpxd> xc(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[i] = rng.normal();
    xc[static_cast<std::size_t>(i)] = x[i];
  }
  const auto ref = naive_dft(xc);
  const Tensor<cpxd> out = rfftn(x, 1);
  for (index_t k = 0; k <= n / 2; ++k) {
    ASSERT_NEAR(std::abs(out[k] - ref[static_cast<std::size_t>(k)]), 0.0,
                1e-9 * static_cast<double>(n))
        << "k=" << k;
  }
}

TEST_P(RfftLengths, RoundTripIsIdentity) {
  const index_t n = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(n));
  TensorD x({n});
  for (index_t i = 0; i < n; ++i) x[i] = rng.normal();
  const TensorD back = irfftn(rfftn(x, 1), 1, n);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_NEAR(back[i], x[i], 1e-10 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(EvenLengths, RfftLengths,
                         ::testing::Values(2, 4, 6, 8, 10, 16, 20, 64, 256));

TEST(Rfft, OddLengthRejected) {
  const TensorD x({5}, 0.0);
  EXPECT_THROW(rfftn(x, 1), CheckError);
}

TEST(Rfft, DcBinIsMean) {
  const index_t n = 32;
  const TensorD x({n}, 3.25);
  const Tensor<cpxd> out = rfftn(x, 1);
  EXPECT_NEAR(out[0].real(), 3.25 * static_cast<double>(n), 1e-10);
  for (index_t k = 1; k < out.size(); ++k) {
    ASSERT_NEAR(std::abs(out[k]), 0.0, 1e-10);
  }
}

TEST(Rfft, CosineHitsSymmetricBins) {
  const index_t n = 64;
  const index_t mode = 7;
  TensorD x({n});
  for (index_t j = 0; j < n; ++j) {
    x[j] = std::cos(2.0 * std::numbers::pi * static_cast<double>(mode * j) /
                    static_cast<double>(n));
  }
  const Tensor<cpxd> out = rfftn(x, 1);
  for (index_t k = 0; k <= n / 2; ++k) {
    const double expected = (k == mode) ? static_cast<double>(n) / 2.0 : 0.0;
    ASSERT_NEAR(std::abs(out[k]), expected, 1e-9);
  }
}

// --- N-D transforms ---------------------------------------------------------

TEST(Fftnd, Rfft2RoundTrip) {
  Rng rng(61);
  TensorD x({3, 2, 16, 12});  // (batch, channel, H, W)
  x.fill_normal(rng, 0.0, 1.0);
  const auto spec = rfftn(x, 2);
  EXPECT_EQ(spec.shape(), (Shape{3, 2, 16, 7}));
  const TensorD back = irfftn(spec, 2, 12);
  ASSERT_EQ(back.shape(), x.shape());
  for (index_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], x[i], 1e-10);
  }
}

TEST(Fftnd, Rfft3RoundTripNonPow2Axis) {
  Rng rng(62);
  TensorD x({2, 1, 10, 8, 8});  // temporal axis 10 exercises Bluestein
  x.fill_normal(rng, 0.0, 1.0);
  const auto spec = rfftn(x, 3);
  EXPECT_EQ(spec.shape(), (Shape{2, 1, 10, 8, 5}));
  const TensorD back = irfftn(spec, 3, 8);
  for (index_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(Fftnd, PlaneWaveLandsInSingleBin2D) {
  const index_t nh = 16, nw = 16;
  TensorD x({1, 1, nh, nw});
  const index_t kh = 3, kw = 2;
  for (index_t i = 0; i < nh; ++i) {
    for (index_t j = 0; j < nw; ++j) {
      x(0, 0, i, j) = std::cos(
          2.0 * std::numbers::pi *
          (static_cast<double>(kh * i) / nh + static_cast<double>(kw * j) / nw));
    }
  }
  const auto spec = rfftn(x, 2);
  // Energy should concentrate in (kh, kw) and its Hermitian partner (nh-kh, kw).
  double total = 0.0;
  for (index_t i = 0; i < spec.size(); ++i) total += std::norm(spec[i]);
  const double peak = std::norm(spec(0, 0, kh, kw)) +
                      std::norm(spec(0, 0, nh - kh, kw));
  EXPECT_NEAR(peak / total, 1.0, 1e-9);
}

TEST(Fftnd, DcBin2DIsSum) {
  TensorD x({1, 1, 8, 8});
  Rng rng(63);
  x.fill_uniform(rng, 0.0, 1.0);
  const auto spec = rfftn(x, 2);
  EXPECT_NEAR(spec(0, 0, 0, 0).real(), x.sum(), 1e-9);
  EXPECT_NEAR(spec(0, 0, 0, 0).imag(), 0.0, 1e-9);
}

TEST(Fftnd, BatchesAreIndependent) {
  Rng rng(64);
  TensorD x({2, 1, 8, 8});
  x.fill_normal(rng, 0.0, 1.0);
  // Transform of the batch must equal per-sample transforms.
  const auto spec = rfftn(x, 2);
  TensorD single({1, 1, 8, 8});
  for (index_t i = 0; i < 64; ++i) single[i] = x[64 + i];
  const auto spec1 = rfftn(single, 2);
  for (index_t i = 0; i < spec1.size(); ++i) {
    ASSERT_NEAR(std::abs(spec[spec1.size() + i] - spec1[i]), 0.0, 1e-12);
  }
}

TEST(Fftnd, C2cAxisMatchesNaivePerLine) {
  Rng rng(65);
  TensorCD x({4, 6, 3});
  for (index_t i = 0; i < x.size(); ++i) x[i] = {rng.normal(), rng.normal()};
  TensorCD y = x;
  c2c_axis(y, 1, /*forward=*/true);
  // Check one line: (batch 2, inner 1).
  std::vector<cpxd> line(6);
  for (index_t j = 0; j < 6; ++j) line[static_cast<std::size_t>(j)] = x(2, j, 1);
  const auto ref = naive_dft(line);
  for (index_t j = 0; j < 6; ++j) {
    ASSERT_NEAR(std::abs(y(2, j, 1) - ref[static_cast<std::size_t>(j)]), 0.0,
                1e-10);
  }
}

TEST(Fftnd, C2cAxisInverseRoundTrip) {
  Rng rng(66);
  TensorCD x({5, 10, 4});
  for (index_t i = 0; i < x.size(); ++i) x[i] = {rng.normal(), rng.normal()};
  TensorCD y = x;
  c2c_axis(y, 1, true);
  c2c_axis(y, 1, false);
  for (index_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

// --- batched property tests across thread counts ----------------------------
//
// Round-trip and Parseval for Bluestein lines (10, 12, 15) and radix-2
// lines, on batched tensors, dispatched at pool widths 1, 2, and 4. Line
// transforms write disjoint slices, so beyond correctness the spectra must
// be bitwise identical across widths.

constexpr std::size_t kWidths[] = {1, 2, 4};

TEST(FftProperties, BatchedRoundTripBluesteinAndRadix2AcrossThreadCounts) {
  // Last axis must be even (rfft); 10 and 12 take the Bluestein path, 16 the
  // radix-2 path. The non-last axes (12, 10 / 16, 16) go through c2c lines.
  for (const auto& shape : {Shape{3, 2, 12, 10}, Shape{3, 2, 16, 16}}) {
    Rng rng(900 + shape[3]);
    TensorD x(shape);
    x.fill_normal(rng, 0.0, 1.0);
    for (const std::size_t width : kWidths) {
      ThreadPool::Scope scope(width);
      const auto spec = rfftn(x, 2);
      const TensorD back = irfftn(spec, 2, shape[3]);
      ASSERT_EQ(back.shape(), x.shape());
      for (index_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(back[i], x[i], 1e-12)
            << "width " << width << " n_last " << shape[3] << " i " << i;
      }
    }
  }
}

TEST(FftProperties, BatchedRoundTripOddBluesteinAcrossThreadCounts) {
  // 15 is odd, so it exercises the Bluestein path through the complex
  // transform (rfft requires an even last axis).
  Rng rng(915);
  TensorCD x({6, 15, 4});
  for (index_t i = 0; i < x.size(); ++i) x[i] = {rng.normal(), rng.normal()};
  for (const std::size_t width : kWidths) {
    ThreadPool::Scope scope(width);
    TensorCD y = x;
    c2c_axis(y, 1, /*forward=*/true);
    c2c_axis(y, 1, /*forward=*/false);
    for (index_t i = 0; i < x.size(); ++i) {
      ASSERT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12) << "width " << width;
    }
  }
}

TEST(FftProperties, BatchedParsevalAcrossThreadCounts) {
  // Real path: Σ|x|² == Σ w·|x̂|²/N per line, with Hermitian multiplicity
  // w = 2 on interior rfft bins. Checked on the whole batch at once.
  for (const index_t n_last : {index_t{10}, index_t{12}, index_t{16}}) {
    Rng rng(920 + n_last);
    TensorD x({4, 3, n_last});
    x.fill_normal(rng, 0.0, 1.0);
    const double time_energy = x.squared_norm();
    for (const std::size_t width : kWidths) {
      ThreadPool::Scope scope(width);
      const auto spec = rfftn(x, 1);
      const index_t bins = n_last / 2 + 1;
      double freq_energy = 0.0;
      for (index_t r = 0; r < 4 * 3; ++r) {
        for (index_t j = 0; j < bins; ++j) {
          const double w = (j == 0 || j == n_last / 2) ? 1.0 : 2.0;
          freq_energy += w * std::norm(spec[r * bins + j]);
        }
      }
      EXPECT_NEAR(freq_energy / static_cast<double>(n_last), time_energy,
                  1e-10 * time_energy)
          << "width " << width << " n " << n_last;
    }
  }
}

TEST(FftProperties, BatchedParsevalOddBluesteinAcrossThreadCounts) {
  Rng rng(930);
  TensorCD x({5, 15, 3});
  double time_energy = 0.0;
  for (index_t i = 0; i < x.size(); ++i) {
    x[i] = {rng.normal(), rng.normal()};
    time_energy += std::norm(x[i]);
  }
  for (const std::size_t width : kWidths) {
    ThreadPool::Scope scope(width);
    TensorCD y = x;
    c2c_axis(y, 1, /*forward=*/true);
    double freq_energy = 0.0;
    for (index_t i = 0; i < y.size(); ++i) freq_energy += std::norm(y[i]);
    EXPECT_NEAR(freq_energy / 15.0, time_energy, 1e-10 * time_energy)
        << "width " << width;
  }
}

TEST(FftProperties, SpectraBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(940);
  TensorD x({4, 2, 12, 10});
  x.fill_normal(rng, 0.0, 1.0);
  const auto ref = [&] {
    ThreadPool::Scope scope(1);
    return rfftn(x, 2);
  }();
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    const auto spec = rfftn(x, 2);
    ASSERT_EQ(spec.shape(), ref.shape());
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(spec[i].real(), ref[i].real()) << "width " << width;
      ASSERT_EQ(spec[i].imag(), ref[i].imag()) << "width " << width;
    }
  }
}

// --- mode-pruned transforms --------------------------------------------------
//
// The FNO keeps the low-|k| corners of the spectrum: on c2c axes the kept
// coordinates are [0, m/2) ∪ [S - m/2, S), on the rfft axis [0, m/2 + 1).
// Pruned rfftn must be bitwise identical to the full transform at every kept
// coordinate; pruned irfftn of a spectrum that is zero outside the kept set
// must be bitwise identical everywhere.

/// Kept-coordinate flags for one axis in the FNO corner pattern.
std::vector<std::uint8_t> corner_keep(index_t extent, index_t n_modes,
                                      bool rfft_axis) {
  std::vector<std::uint8_t> keep(static_cast<std::size_t>(extent), 0);
  const index_t half = n_modes / 2;
  if (rfft_axis) {
    for (index_t s = 0; s < std::min(extent, half + 1); ++s) {
      keep[static_cast<std::size_t>(s)] = 1;
    }
  } else {
    for (index_t s = 0; s < extent; ++s) {
      if (s < half || s >= extent - half) keep[static_cast<std::size_t>(s)] = 1;
    }
  }
  return keep;
}

/// FNO corner mask over the trailing `ndim` axes of a spatial shape, keeping
/// `n_modes[d]` modes per axis.
fft::ModeMask corner_mask(const Shape& spatial_shape, std::size_t ndim,
                          const std::vector<index_t>& n_modes) {
  const std::size_t rank = spatial_shape.size();
  fft::ModeMask mask(ndim);
  for (std::size_t d = 0; d < ndim; ++d) {
    const index_t extent = spatial_shape[rank - ndim + d];
    const bool last = (d == ndim - 1);
    mask[d] = corner_keep(last ? extent / 2 + 1 : extent, n_modes[d], last);
  }
  return mask;
}

/// True when the spectrum coordinate (over the trailing ndim axes of `spec`)
/// is kept by every axis of the mask.
bool coord_kept(const fft::ModeMask& mask, const Shape& spec_shape,
                std::size_t ndim, index_t flat) {
  const std::size_t rank = spec_shape.size();
  for (std::size_t d = ndim; d-- > 0;) {
    const index_t extent = spec_shape[rank - ndim + d];
    const index_t coord = flat % extent;
    flat /= extent;
    if (!mask[d].empty() && mask[d][static_cast<std::size_t>(coord)] == 0) {
      return false;
    }
  }
  return true;
}

struct PrunedCase {
  Shape shape;
  std::size_t ndim;
  std::vector<index_t> n_modes;
};

/// Shapes cover radix-2 lines ({16,16}), Bluestein c2c (12) over Bluestein
/// rfft (10), odd Bluestein 15 on the c2c axis (15 cannot be an rfft axis —
/// the last axis must be even), and a 3-D transform masked on all three axes.
const PrunedCase kPrunedCases[] = {
    {{3, 2, 16, 16}, 2, {6, 6}},
    {{3, 2, 12, 10}, 2, {6, 4}},
    {{2, 1, 15, 16}, 2, {7, 6}},
    {{2, 1, 10, 12, 16}, 3, {4, 6, 8}},
};

TEST(FftPruned, RfftnBitwiseIdenticalAtKeptCoords) {
  for (const PrunedCase& pc : kPrunedCases) {
    Rng rng(700 + pc.shape.back());
    TensorD x(pc.shape);
    x.fill_normal(rng, 0.0, 1.0);
    const fft::ModeMask mask = corner_mask(pc.shape, pc.ndim, pc.n_modes);
    const auto full = rfftn(x, static_cast<int>(pc.ndim));
    const index_t spec_block = [&] {
      index_t b = 1;
      for (std::size_t d = 0; d < pc.ndim; ++d) {
        b *= full.shape()[full.rank() - pc.ndim + d];
      }
      return b;
    }();
    for (const std::size_t width : kWidths) {
      ThreadPool::Scope scope(width);
      const auto pruned = rfftn(x, static_cast<int>(pc.ndim), &mask);
      ASSERT_EQ(pruned.shape(), full.shape());
      index_t kept = 0;
      for (index_t i = 0; i < full.size(); ++i) {
        if (!coord_kept(mask, full.shape(), pc.ndim, i % spec_block)) continue;
        ++kept;
        ASSERT_EQ(pruned[i].real(), full[i].real())
            << "width " << width << " i " << i;
        ASSERT_EQ(pruned[i].imag(), full[i].imag())
            << "width " << width << " i " << i;
      }
      ASSERT_GT(kept, 0);
      ASSERT_LT(kept, full.size());  // the mask must actually prune something
    }
  }
}

TEST(FftPruned, IrfftnBitwiseIdenticalOnCornerSpectrum) {
  for (const PrunedCase& pc : kPrunedCases) {
    Rng rng(800 + pc.shape.back());
    TensorD x(pc.shape);
    x.fill_normal(rng, 0.0, 1.0);
    const fft::ModeMask mask = corner_mask(pc.shape, pc.ndim, pc.n_modes);
    // Build a corner spectrum: full forward transform, then zero every
    // coordinate outside the kept set (the caller contract for pruned
    // irfftn).
    auto spec = rfftn(x, static_cast<int>(pc.ndim));
    index_t spec_block = 1;
    for (std::size_t d = 0; d < pc.ndim; ++d) {
      spec_block *= spec.shape()[spec.rank() - pc.ndim + d];
    }
    for (index_t i = 0; i < spec.size(); ++i) {
      if (!coord_kept(mask, spec.shape(), pc.ndim, i % spec_block)) {
        spec[i] = {};
      }
    }
    const index_t n_last = pc.shape.back();
    const TensorD full = irfftn(spec, static_cast<int>(pc.ndim), n_last);
    for (const std::size_t width : kWidths) {
      ThreadPool::Scope scope(width);
      const TensorD pruned =
          irfftn(spec, static_cast<int>(pc.ndim), n_last, &mask);
      ASSERT_EQ(pruned.shape(), full.shape());
      for (index_t i = 0; i < full.size(); ++i) {
        ASSERT_EQ(pruned[i], full[i]) << "width " << width << " i " << i;
      }
    }
  }
}

TEST(FftPruned, SkipsLinesAndCountsThem) {
  TensorD x({2, 2, 16, 16});
  Rng rng(77);
  x.fill_normal(rng, 0.0, 1.0);
  const fft::ModeMask mask = corner_mask(x.shape(), 2, {6, 6});
  auto& skipped = obs::counter("fft/pruned_lines_skipped");
  auto& total = obs::counter("fft/lines_total");
  const auto skipped0 = skipped.value();
  const auto total0 = total.value();
  (void)rfftn(x, 2, &mask);
  EXPECT_GT(skipped.value(), skipped0);
  EXPECT_GT(total.value() - total0, skipped.value() - skipped0);
  const auto skipped1 = skipped.value();
  (void)rfftn(x, 2);  // unmasked: no pruning
  EXPECT_EQ(skipped.value(), skipped1);
}

TEST(FftPruned, MaskShapeMismatchRejected) {
  TensorD x({1, 1, 8, 8});
  fft::ModeMask bad(2);
  bad[0].assign(7, 1);  // extent is 8
  EXPECT_THROW(rfftn(x, 2, &bad), CheckError);
  fft::ModeMask wrong_rank(1);
  EXPECT_THROW(rfftn(x, 2, &wrong_rank), CheckError);
}

// --- batched-vs-single bitwise equivalence -----------------------------------
//
// Batch occupancy invariance: a line's floating-point bits must not depend on
// how many other lines share its batch or which lane it lands in. Checked at
// the plan level (forward_batch/inverse_batch against per-line forward/inverse
// at lane counts 1, B-1, B, B+1) and through the drivers (c2c_axis and
// rfftn/irfftn with line batching toggled, line counts 1, B-1, B, B+1, 3B+2,
// pruned and unpruned, pool widths 1/2/4; c2c_stage's in-place column runs
// at run widths 1–68 with gapped keep patterns and src != dst; the row
// drivers at 1, B-1, B, B+1, 3B+2 rows), for f32 and f64, on every ISA tier
// the host supports. B is the tier's lane count. With batching off the row
// drivers run one-lane batches of the same row core, so the real-stage
// checks compare B-lane with one-lane sweeps of one kernel: the avx2 lane
// kernels, or rfft_scratch / irfft_scratch row by row on the scalar tier.

/// Line counts that exercise full batches and every ragged-tail shape.
template <typename T>
std::vector<index_t> ragged_line_counts() {
  const index_t b = lane_count(util::active_isa());
  std::vector<index_t> counts;
  for (const index_t c : {index_t{1}, b - 1, b, b + 1, 3 * b + 2}) {
    if (c >= 1 && std::find(counts.begin(), counts.end(), c) == counts.end()) {
      counts.push_back(c);
    }
  }
  return counts;
}

/// Bitwise equality of two results, except that any NaN matches any NaN:
/// which input NaN a NaN result carries depends on operand order, which
/// is not part of the contract. Signed zeros and infinities must match.
template <typename T>
bool same_bits(std::complex<T> a, std::complex<T> b) {
  const auto part = [](T x, T y) {
    return (std::isnan(x) && std::isnan(y)) ||
           std::memcmp(&x, &y, sizeof(T)) == 0;
  };
  return part(a.real(), b.real()) && part(a.imag(), b.imag());
}

template <typename T>
void expect_plan_batch_bitwise() {
  using cpx = std::complex<T>;
  const index_t b = lane_count(util::active_isa());
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  // Radix-2 lengths with even (4, 16, 64) and odd (2, 8, 32, 128) stage
  // counts: the lane kernels run stage pairs, then one lone stage when the
  // count is odd. 10/12/15 take the Bluestein path.
  for (const index_t n :
       {index_t{2}, index_t{4}, index_t{8}, index_t{16}, index_t{32},
        index_t{64}, index_t{128}, index_t{10}, index_t{12}, index_t{15}}) {
    const PlanC2C<T> plan(n);
    for (const index_t nl :
         {index_t{1}, b - 1, b, std::min(b + 1, kMaxLanes)}) {
      if (nl < 1) continue;
      for (const bool special : {false, true}) {
        Rng rng(50 + static_cast<std::uint64_t>(n * 16 + nl));
        std::vector<cpx> batched(static_cast<std::size_t>(n * nl));
        std::vector<cpx> ref(static_cast<std::size_t>(n * nl));
        for (index_t l = 0; l < nl; ++l) {
          for (index_t j = 0; j < n; ++j) {
            cpx v(static_cast<T>(rng.normal()), static_cast<T>(rng.normal()));
            // Special lanes: every third lane holds one NaN, +inf or −inf
            // element, the next lane only signed zeros.
            if (special && l % 3 == 1 && j == l % n) {
              const T s = (l % 9 == 1) ? nan : (l % 9 == 4 ? inf : -inf);
              v = (l % 2 == 0) ? cpx(s, v.imag()) : cpx(v.real(), s);
            } else if (special && l % 3 == 2) {
              v = cpx((j % 2 == 0) ? T{0} : -T{0}, (j % 3 == 0) ? -T{0} : T{0});
            }
            batched[static_cast<std::size_t>(j * nl + l)] = v;  // interleaved
            ref[static_cast<std::size_t>(l * n + j)] = v;       // line-major
          }
        }
        for (const bool inverse : {false, true}) {
          auto got = batched;
          auto want = ref;
          if (inverse) {
            plan.inverse_batch(got.data(), got.data(), nl, nl);
            for (index_t l = 0; l < nl; ++l) plan.inverse(want.data() + l * n);
          } else {
            plan.forward_batch(got.data(), got.data(), nl, nl);
            for (index_t l = 0; l < nl; ++l) plan.forward(want.data() + l * n);
          }
          for (index_t l = 0; l < nl; ++l) {
            for (index_t j = 0; j < n; ++j) {
              const cpx g = got[static_cast<std::size_t>(j * nl + l)];
              const cpx w = want[static_cast<std::size_t>(l * n + j)];
              ASSERT_TRUE(same_bits(g, w))
                  << "n=" << n << " nl=" << nl << " l=" << l << " j=" << j
                  << " inverse=" << inverse << " special=" << special
                  << " got=" << g << " want=" << w;
            }
          }
        }
      }
    }
  }
}

TEST(FftBatched, PlanBatchMatchesSingleBitwiseScalar) {
  util::ScopedIsa forced(util::Isa::kScalar);
  expect_plan_batch_bitwise<float>();
  expect_plan_batch_bitwise<double>();
}

TEST(FftBatched, PlanBatchMatchesSingleBitwiseAvx2) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  util::ScopedIsa forced(util::Isa::kAvx2);
  expect_plan_batch_bitwise<float>();
  expect_plan_batch_bitwise<double>();
}

template <typename T>
void expect_c2c_batch_bitwise() {
  using cpx = std::complex<T>;
  for (const index_t nlines : ragged_line_counts<T>()) {
    for (const index_t n : {index_t{16}, index_t{12}, index_t{15}}) {
      Rng rng(60 + static_cast<std::uint64_t>(n * 64 + nlines));
      // Lines along axis 1; the inner axis extent is the line count, so an
      // inner_keep mask prunes whole lines and the batch gather goes ragged.
      Tensor<cpx> x({2, n, nlines});
      for (index_t i = 0; i < x.size(); ++i) {
        x[i] = {static_cast<T>(rng.normal()), static_cast<T>(rng.normal())};
      }
      std::vector<std::uint8_t> keep(static_cast<std::size_t>(nlines), 0);
      for (index_t l = 0; l < nlines; l += 2) {
        keep[static_cast<std::size_t>(l)] = 1;
      }
      for (const std::vector<std::uint8_t>* kp :
           {static_cast<const std::vector<std::uint8_t>*>(nullptr),
            static_cast<const std::vector<std::uint8_t>*>(&keep)}) {
        for (const bool forward : {true, false}) {
          for (const std::size_t width : kWidths) {
            ThreadPool::Scope scope(width);
            Tensor<cpx> ref = x;
            {
              ScopedLineBatching off(false);
              c2c_axis(ref, 1, forward, kp);
            }
            Tensor<cpx> bat = x;
            {
              ScopedLineBatching on(true);
              c2c_axis(bat, 1, forward, kp);
            }
            for (index_t i = 0; i < ref.size(); ++i) {
              ASSERT_EQ(bat[i].real(), ref[i].real())
                  << "n=" << n << " nlines=" << nlines << " width=" << width
                  << " masked=" << (kp != nullptr) << " i=" << i;
              ASSERT_EQ(bat[i].imag(), ref[i].imag())
                  << "n=" << n << " nlines=" << nlines << " width=" << width
                  << " masked=" << (kp != nullptr) << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(FftBatched, C2cAxisBatchedMatchesPerLineBitwiseScalar) {
  util::ScopedIsa forced(util::Isa::kScalar);
  expect_c2c_batch_bitwise<float>();
  expect_c2c_batch_bitwise<double>();
}

TEST(FftBatched, C2cAxisBatchedMatchesPerLineBitwiseAvx2) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  util::ScopedIsa forced(util::Isa::kAvx2);
  expect_c2c_batch_bitwise<float>();
  expect_c2c_batch_bitwise<double>();
}

/// rfftn/irfftn with batching on (B-lane row sweeps) against batching off
/// (one-lane row sweeps of the same row core, per-line c2c arm).
template <typename T>
void expect_real_batch_bitwise() {
  using cpx = std::complex<T>;
  constexpr index_t kNLast = 16;
  for (const index_t nlines : ragged_line_counts<T>()) {
    Rng rng(70 + static_cast<std::uint64_t>(nlines));
    // 2-D transform: `nlines` rfft rows over a Bluestein c2c axis. The
    // corner mask prunes lines on the c2c axis and bins on the rfft axis.
    Tensor<T> x({nlines, 12, kNLast});
    for (index_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<T>(rng.normal());
    }
    const ModeMask mask = corner_mask(x.shape(), 2, {6, 6});
    for (const ModeMask* mp : {static_cast<const ModeMask*>(nullptr), &mask}) {
      for (const std::size_t width : kWidths) {
        ThreadPool::Scope scope(width);
        const auto spec_ref = [&] {
          ScopedLineBatching off(false);
          return rfftn(x, 2, mp);
        }();
        const auto spec_bat = [&] {
          ScopedLineBatching on(true);
          return rfftn(x, 2, mp);
        }();
        ASSERT_EQ(spec_bat.shape(), spec_ref.shape());
        const index_t spec_block =
            spec_ref.shape()[1] * spec_ref.shape()[2];
        for (index_t i = 0; i < spec_ref.size(); ++i) {
          // Pruned rfftn leaves unkept coordinates unspecified; compare the
          // kept set only (everything when unmasked).
          if (mp != nullptr &&
              !coord_kept(*mp, spec_ref.shape(), 2, i % spec_block)) {
            continue;
          }
          ASSERT_EQ(spec_bat[i].real(), spec_ref[i].real())
              << "nlines=" << nlines << " width=" << width
              << " masked=" << (mp != nullptr) << " i=" << i;
          ASSERT_EQ(spec_bat[i].imag(), spec_ref[i].imag())
              << "nlines=" << nlines << " width=" << width
              << " masked=" << (mp != nullptr) << " i=" << i;
        }
        // Inverse: corner spectrum (zero outside the kept set) so pruned
        // irfftn is bitwise-defined everywhere.
        Tensor<cpx> spec = spec_ref;
        if (mp != nullptr) {
          for (index_t i = 0; i < spec.size(); ++i) {
            if (!coord_kept(*mp, spec.shape(), 2, i % spec_block)) {
              spec[i] = {};
            }
          }
        }
        const auto back_ref = [&] {
          ScopedLineBatching off(false);
          return irfftn(spec, 2, kNLast, mp);
        }();
        const auto back_bat = [&] {
          ScopedLineBatching on(true);
          return irfftn(spec, 2, kNLast, mp);
        }();
        ASSERT_EQ(back_bat.shape(), back_ref.shape());
        for (index_t i = 0; i < back_ref.size(); ++i) {
          ASSERT_EQ(back_bat[i], back_ref[i])
              << "nlines=" << nlines << " width=" << width
              << " masked=" << (mp != nullptr) << " i=" << i;
        }
      }
    }
  }
}

TEST(FftBatched, RfftnIrfftnBatchedMatchesPerLineBitwiseScalar) {
  util::ScopedIsa forced(util::Isa::kScalar);
  expect_real_batch_bitwise<float>();
  expect_real_batch_bitwise<double>();
}

TEST(FftBatched, RfftnIrfftnBatchedMatchesPerLineBitwiseAvx2) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  util::ScopedIsa forced(util::Isa::kAvx2);
  expect_real_batch_bitwise<float>();
  expect_real_batch_bitwise<double>();
}

/// Per-pool-slot line scratch for direct line-driver calls: z holds
/// max(n, (n/2)·kMaxLanes), u (n/2+1)·kMaxLanes.
template <typename T>
struct SlotScratch {
  SlotScratch(const ThreadPool& pool, index_t n)
      : pool(&pool),
        z_len(std::max(n, (n / 2) * kMaxLanes)),
        u_len((n / 2 + 1) * kMaxLanes),
        buf(pool.size() * static_cast<std::size_t>(z_len + u_len)) {}
  LineScratch<T> operator()() const {
    std::complex<T>* z =
        buf.data() + pool->scratch_slot() *
                         static_cast<std::size_t>(z_len + u_len);
    return {z, z + z_len};
  }
  const ThreadPool* pool;
  index_t z_len, u_len;
  mutable std::vector<std::complex<T>> buf;
};

/// Keep flags for runs of the given widths, each followed by a gap of one
/// or two pruned columns (alternating).
std::vector<std::uint8_t> gapped_keep(const std::vector<index_t>& runs) {
  std::vector<std::uint8_t> keep;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    keep.insert(keep.end(), static_cast<std::size_t>(runs[r]), 1);
    keep.insert(keep.end(), 1 + r % 2, 0);
  }
  return keep;
}

template <typename T>
void expect_column_stage_bitwise() {
  using cpx = std::complex<T>;
  struct Layout {
    index_t inner;
    std::vector<std::uint8_t> keep;  // empty = every column kept
  };
  std::vector<Layout> layouts;
  // Unpruned: one run as wide as the stage (split at kMaxLanes tiles).
  for (const index_t w : {1, 2, 3, 4, 5, 7, 8, 9, 17, 33, 68}) {
    layouts.push_back({w, {}});
  }
  // Gapped runs, one of them straddling the first tile boundary.
  for (const std::vector<index_t>& runs :
       {std::vector<index_t>{3, 1, 5, 9, 2, 7},
        std::vector<index_t>{17, 8, 33, 4}, std::vector<index_t>{1, 1, 1}}) {
    std::vector<std::uint8_t> keep = gapped_keep(runs);
    const auto inner = static_cast<index_t>(keep.size());
    layouts.push_back({inner, std::move(keep)});
  }
  std::uint64_t seed = 90;
  for (const Layout& layout : layouts) {
    // 2, 8, 32 and 128 have odd stage counts (stage pairs, then a lone
    // stage on avx2), 16 an even one, 12 is Bluestein.
    for (const index_t n : {index_t{16}, index_t{32}, index_t{12}, index_t{2},
                            index_t{8}, index_t{128}}) {
      for (const index_t outer : {index_t{1}, index_t{3}}) {
        const C2cStage st{n, outer, layout.inner, layout.keep};
        const index_t size = outer * n * layout.inner;
        Rng rng(++seed);
        std::vector<cpx> src(static_cast<std::size_t>(size));
        for (cpx& v : src) {
          v = {static_cast<T>(rng.normal()), static_cast<T>(rng.normal())};
        }
        const cpx sentinel(T{-7}, T{3});
        for (const bool forward : {true, false}) {
          for (const std::size_t width : kWidths) {
            ThreadPool::Scope scope(width);
            ThreadPool& pool = ThreadPool::current();
            const SlotScratch<T> scratch(pool, n);
            const auto run = [&](bool batching, bool in_place) {
              ScopedLineBatching lanes(batching);
              std::vector<cpx> dst(src.size(), sentinel);
              if (in_place) {
                dst = src;
                c2c_stage(pool, dst.data(), dst.data(), st, forward, scratch);
              } else {
                c2c_stage(pool, src.data(), dst.data(), st, forward, scratch);
              }
              return dst;
            };
            const std::vector<cpx> ref = run(false, true);
            for (const bool in_place : {true, false}) {
              const std::vector<cpx> got = run(true, in_place);
              for (index_t e = 0; e < size; ++e) {
                const auto i = static_cast<std::size_t>(e);
                const bool kept =
                    layout.keep.empty() ||
                    layout.keep[static_cast<std::size_t>(e % layout.inner)];
                // Skipped columns keep what dst held: the input in place,
                // the sentinel when the stage wrote from src.
                const cpx want = kept ? ref[i] : (in_place ? src[i] : sentinel);
                ASSERT_EQ(got[i].real(), want.real())
                    << "n=" << n << " inner=" << layout.inner
                    << " outer=" << outer << " forward=" << forward
                    << " width=" << width << " in_place=" << in_place
                    << " e=" << e;
                ASSERT_EQ(got[i].imag(), want.imag())
                    << "n=" << n << " inner=" << layout.inner
                    << " outer=" << outer << " forward=" << forward
                    << " width=" << width << " in_place=" << in_place
                    << " e=" << e;
              }
            }
          }
        }
      }
    }
  }
}

TEST(FftBatched, ColumnStageMatchesPerLineBitwiseScalar) {
  util::ScopedIsa forced(util::Isa::kScalar);
  expect_column_stage_bitwise<float>();
  expect_column_stage_bitwise<double>();
}

TEST(FftBatched, ColumnStageMatchesPerLineBitwiseAvx2) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  util::ScopedIsa forced(util::Isa::kAvx2);
  expect_column_stage_bitwise<float>();
  expect_column_stage_bitwise<double>();
}

/// rfft_rows/irfft_rows with batching on (B-lane sweeps) against batching
/// off (one-lane sweeps of the same row core).
template <typename T>
void expect_row_drivers_bitwise() {
  using cpx = std::complex<T>;
  const index_t b = lane_count(util::active_isa());
  // 16 runs a radix-2 half-length plan, 20 a Bluestein one (h = 10).
  for (const index_t n : {index_t{16}, index_t{20}}) {
    const index_t bins = n / 2 + 1;
    std::vector<cpx> rtw(static_cast<std::size_t>(bins));
    std::vector<cpx> itw(static_cast<std::size_t>(n / 2));
    fill_rfft_twiddles(rtw.data(), n);
    fill_irfft_twiddles(itw.data(), n);
    std::vector<std::uint8_t> keep_bins(static_cast<std::size_t>(bins), 0);
    for (index_t k = 0; k < bins; k += 3) {
      keep_bins[static_cast<std::size_t>(k)] = 1;
    }
    for (const index_t rows : {index_t{1}, b - 1, b, b + 1, 3 * b + 2}) {
      if (rows < 1) continue;
      Rng rng(120 + static_cast<std::uint64_t>(n * 128 + rows));
      std::vector<T> x(static_cast<std::size_t>(rows * n));
      for (T& v : x) v = static_cast<T>(rng.normal());
      std::vector<cpx> spec(static_cast<std::size_t>(rows * bins));
      for (cpx& v : spec) {
        v = {static_cast<T>(rng.normal()), static_cast<T>(rng.normal())};
      }
      const cpx sentinel(T{5}, T{-2});
      for (const std::size_t width : kWidths) {
        ThreadPool::Scope scope(width);
        ThreadPool& pool = ThreadPool::current();
        const SlotScratch<T> scratch(pool, n);
        for (const std::uint8_t* kb :
             {static_cast<const std::uint8_t*>(nullptr),
              static_cast<const std::uint8_t*>(keep_bins.data())}) {
          const auto forward = [&](bool batching) {
            ScopedLineBatching lanes(batching);
            std::vector<cpx> out(spec.size(), sentinel);
            rfft_rows(pool, x.data(), out.data(), rows, n, kb, rtw.data(),
                      scratch);
            return out;
          };
          const std::vector<cpx> ref = forward(false);
          const std::vector<cpx> got = forward(true);
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(got[i].real(), ref[i].real())
                << "n=" << n << " rows=" << rows << " width=" << width
                << " keep_bins=" << (kb != nullptr) << " i=" << i;
            ASSERT_EQ(got[i].imag(), ref[i].imag())
                << "n=" << n << " rows=" << rows << " width=" << width
                << " keep_bins=" << (kb != nullptr) << " i=" << i;
            if (kb != nullptr && kb[i % static_cast<std::size_t>(bins)] == 0) {
              ASSERT_EQ(got[i], sentinel) << "skipped bin written, i=" << i;
            }
          }
        }
        const auto inverse = [&](bool batching) {
          ScopedLineBatching lanes(batching);
          std::vector<T> out(x.size());
          irfft_rows(pool, spec.data(), out.data(), rows, n, itw.data(),
                     scratch);
          return out;
        };
        const std::vector<T> ref = inverse(false);
        const std::vector<T> got = inverse(true);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(got[i], ref[i]) << "n=" << n << " rows=" << rows
                                    << " width=" << width << " i=" << i;
        }
      }
    }
  }
}

TEST(FftBatched, RowDriversMatchPerLineBitwiseScalar) {
  util::ScopedIsa forced(util::Isa::kScalar);
  expect_row_drivers_bitwise<float>();
  expect_row_drivers_bitwise<double>();
}

TEST(FftBatched, RowDriversMatchPerLineBitwiseAvx2) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  util::ScopedIsa forced(util::Isa::kAvx2);
  expect_row_drivers_bitwise<float>();
  expect_row_drivers_bitwise<double>();
}

TEST(FftBatched, ColumnLineCounterCountsColumnRunsOnly) {
  // A pruned strided stage on the avx2 lane kernels runs its kept lines as
  // column runs; the per-line arm and the scalar tier run none.
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  auto& columns = obs::counter("fft/column_lines");
  Tensor<std::complex<float>> x({3, 16, 9});
  for (index_t i = 0; i < x.size(); ++i) {
    x[i] = {static_cast<float>(i % 7), static_cast<float>(i % 5)};
  }
  const std::vector<std::uint8_t> keep = {1, 1, 0, 1, 1, 1, 0, 0, 1};
  ThreadPool::Scope scope(2);
  for (const util::Isa isa : {util::Isa::kAvx2, util::Isa::kScalar}) {
    for (const bool batching : {true, false}) {
      util::ScopedIsa forced(isa);
      ScopedLineBatching lanes(batching);
      const auto before = columns.value();
      c2c_axis(x, 1, /*forward=*/true, &keep);
      const bool column_path = isa == util::Isa::kAvx2 && batching;
      EXPECT_EQ(columns.value() - before, column_path ? 3 * 6 : 0)
          << util::isa_name(isa) << " batching=" << batching;
    }
  }
}

TEST(FftBatched, BatchedLineCountersAdvance) {
  // The rfft row stage batches on every ISA tier (c2c stages batch only
  // where the plan has lane kernels), so the scalar tier drives it here.
  util::ScopedIsa forced(util::Isa::kScalar);
  ScopedLineBatching on(true);
  auto& batched = obs::counter("fft/batched_lines");
  auto& tails = obs::counter("fft/batch_tail_lines");
  const auto batched0 = batched.value();
  const auto tails0 = tails.value();
  const index_t b = lane_count(util::Isa::kScalar);
  Tensor<double> x({3 * b + 2, 16});
  Rng rng(81);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  {
    ThreadPool::Scope scope(1);
    (void)rfftn(x, 1);
  }
  EXPECT_GT(batched.value() - batched0, 0);
  // 3B+2 total lines: however the range is chunked, at least one flush group
  // is ragged, so the tail counter must advance too.
  EXPECT_GT(tails.value() - tails0, 0);
}

/// fft/batch_tail_lines added by one rfft_rows (`forward`) or irfft_rows
/// sweep over `rows` rows of n = 32 at pool width `width`.
template <typename T>
std::int64_t tail_lines_added(std::size_t width, index_t rows, bool forward) {
  using cpx = std::complex<T>;
  constexpr index_t n = 32;
  ThreadPool::Scope scope(width);
  ThreadPool& pool = ThreadPool::current();
  const SlotScratch<T> scratch(pool, n);
  std::vector<cpx> tw(n / 2 + 1);
  std::vector<T> x(static_cast<std::size_t>(rows * n));
  std::vector<cpx> spec(static_cast<std::size_t>(rows * (n / 2 + 1)));
  auto& tails = obs::counter("fft/batch_tail_lines");
  const auto before = tails.value();
  if (forward) {
    fill_rfft_twiddles(tw.data(), n);
    rfft_rows(pool, x.data(), spec.data(), rows, n, nullptr, tw.data(),
              scratch);
  } else {
    fill_irfft_twiddles(tw.data(), n);
    irfft_rows(pool, spec.data(), x.data(), rows, n, tw.data(), scratch);
  }
  return tails.value() - before;
}

TEST(FftBatched, RowSweepsAreWholeLaneBatchesAtAnyWidth) {
  // The row drivers dispatch lane batches, not rows, so no pool chunk cuts
  // a sweep short: only a sweep's last batch can be ragged.
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2";
  util::ScopedIsa forced(util::Isa::kAvx2);
  ScopedLineBatching on(true);
  ASSERT_EQ(lane_count(util::Isa::kAvx2), 32);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    for (const bool forward : {true, false}) {
      // The PDE step's 128 gradient rows (and its rfft rows, as one shape).
      EXPECT_EQ(tail_lines_added<double>(width, 128, forward), 0)
          << "f64 128 rows, width " << width << " forward " << forward;
      // The batch-2 engine's 2·12·32 rows.
      EXPECT_EQ(tail_lines_added<float>(width, 768, forward), 0)
          << "f32 768 rows, width " << width << " forward " << forward;
      // 100 = 3·32 + 4: the last batch's 4 rows, at every width.
      EXPECT_EQ(tail_lines_added<double>(width, 100, forward), 4)
          << "f64 100 rows, width " << width << " forward " << forward;
    }
  }
}

// --- workspace cache ---------------------------------------------------------

TEST(FftWorkspace, SameSlotSameShapeReusesBuffer) {
  TensorD& a = fft::workspace<double>("test/ws_reuse", {4, 6});
  a(2, 3) = 42.0;
  double* ptr = a.data();
  TensorD& b = fft::workspace<double>("test/ws_reuse", {4, 6});
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b(2, 3), 42.0);  // contents carried over
}

TEST(FftWorkspace, EqualNumelReshapesInPlace) {
  TensorD& a = fft::workspace<double>("test/ws_reshape", {3, 8});
  double* ptr = a.data();
  TensorD& b = fft::workspace<double>("test/ws_reshape", {6, 4});
  EXPECT_EQ(b.data(), ptr);  // same storage, new shape
  EXPECT_EQ(b.shape(), (Shape{6, 4}));
}

TEST(FftWorkspace, DifferentNumelReallocates) {
  TensorD& a = fft::workspace<double>("test/ws_grow", {2, 2});
  EXPECT_EQ(a.size(), 4);
  TensorD& b = fft::workspace<double>("test/ws_grow", {8, 8});
  EXPECT_EQ(b.size(), 64);
  EXPECT_EQ(b.shape(), (Shape{8, 8}));
}

TEST(FftWorkspace, SlotsAreIndependent) {
  TensorD& a = fft::workspace<double>("test/ws_a", {4});
  TensorD& b = fft::workspace<double>("test/ws_b", {4});
  EXPECT_NE(a.data(), b.data());
}

TEST(Fftnd, ParsevalIn2D) {
  Rng rng(67);
  TensorD x({1, 1, 32, 32});
  x.fill_normal(rng, 0.0, 1.0);
  const auto spec = rfftn(x, 2);
  double freq_energy = 0.0;
  const index_t nh = 32, nwr = 17;
  for (index_t i = 0; i < nh; ++i) {
    for (index_t j = 0; j < nwr; ++j) {
      // Interior rfft bins represent two Hermitian-symmetric coefficients.
      const double w = (j == 0 || j == nwr - 1) ? 1.0 : 2.0;
      freq_energy += w * std::norm(spec(0, 0, i, j));
    }
  }
  EXPECT_NEAR(freq_energy / (32.0 * 32.0), x.squared_norm(),
              1e-8 * x.squared_norm());
}

}  // namespace
}  // namespace turb::fft
