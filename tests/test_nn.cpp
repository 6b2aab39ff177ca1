#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dataloader.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/spectral_conv.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb::nn {
namespace {

TensorF random_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

// --- Linear -----------------------------------------------------------------

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  // Deterministic weights for the check.
  layer.weight().value.fill(0.0f);
  layer.weight().value(0, 0) = 1.0f;
  layer.weight().value(1, 1) = 2.0f;
  layer.weight().value(2, 0) = -1.0f;
  layer.bias().value[0] = 0.5f;
  layer.bias().value[1] = 0.0f;
  layer.bias().value[2] = 0.0f;

  TensorF x({1, 2, 2, 2});
  for (index_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i + 1);
  const TensorF y = layer.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 3, 2, 2}));
  // y[0,0,·] = 1*x[0,0,·] + 0.5
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 1.5f);
  // y[0,1,·] = 2*x[0,1,·]
  EXPECT_FLOAT_EQ(y(0, 1, 1, 1), 16.0f);
  // y[0,2,·] = -x[0,0,·]
  EXPECT_FLOAT_EQ(y(0, 2, 0, 1), -2.0f);
}

TEST(Linear, GradcheckInput) {
  Rng rng(2);
  Linear layer(3, 4, rng);
  const auto res = gradcheck_input(layer, random_input({2, 3, 4, 5}, 3));
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(Linear, GradcheckParameters) {
  Rng rng(4);
  Linear layer(3, 2, rng);
  const auto res = gradcheck_parameters(layer, random_input({2, 3, 6, 6}, 5));
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(Linear, GradcheckParametersPooled) {
  // Batch 9 > kGradSlabs exercises the multi-slab dW/db scratch reduction
  // with 4 pool workers, not just the serial path.
  ThreadPool::Scope scope(4);
  Rng rng(4);
  Linear layer(3, 2, rng);
  const auto res = gradcheck_parameters(layer, random_input({9, 3, 6, 6}, 5));
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(Linear, BackwardBitwiseIdenticalAcrossThreadCounts) {
  const auto grads_at = [](std::size_t width) {
    ThreadPool::Scope scope(width);
    Rng rng(14);
    Linear layer(3, 4, rng);
    const TensorF x = random_input({9, 3, 6, 6}, 15);
    const TensorF y = layer.forward(x);
    const TensorF dx = layer.backward(random_input(y.shape(), 16));
    return std::tuple{dx, layer.weight().grad, layer.bias().grad};
  };
  const auto [dx1, dw1, db1] = grads_at(1);
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    const auto [dx, dw, db] = grads_at(width);
    for (index_t i = 0; i < dx1.size(); ++i) ASSERT_EQ(dx[i], dx1[i]) << i;
    for (index_t i = 0; i < dw1.size(); ++i) ASSERT_EQ(dw[i], dw1[i]) << i;
    for (index_t i = 0; i < db1.size(); ++i) ASSERT_EQ(db[i], db1[i]) << i;
  }
}

TEST(Linear, GradcheckNoBias) {
  Rng rng(6);
  Linear layer(2, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  const auto res = gradcheck_parameters(layer, random_input({3, 2, 4, 4}, 7));
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(Linear, Works1DSpatial) {
  Rng rng(8);
  Linear layer(4, 4, rng);
  const TensorF y = layer.forward(random_input({2, 4, 10}, 9));
  EXPECT_EQ(y.shape(), (Shape{2, 4, 10}));
}

TEST(Linear, RejectsWrongChannelCount) {
  Rng rng(10);
  Linear layer(4, 4, rng);
  EXPECT_THROW(layer.forward(random_input({1, 3, 4, 4}, 11)), CheckError);
}

TEST(Linear, GradAccumulatesAcrossCalls) {
  Rng rng(12);
  Linear layer(2, 2, rng);
  const TensorF x = random_input({1, 2, 3, 3}, 13);
  const TensorF y = layer.forward(x);
  TensorF g(y.shape(), 1.0f);
  (void)layer.backward(g);
  const float first = layer.weight().grad[0];
  (void)layer.forward(x);
  (void)layer.backward(g);
  EXPECT_NEAR(layer.weight().grad[0], 2.0f * first, 1e-5f);
}

// --- GELU --------------------------------------------------------------------

TEST(Gelu, KnownValues) {
  Gelu act;
  TensorF x({1, 1, 3});
  x[0] = 0.0f;
  x[1] = 1.0f;
  x[2] = -1.0f;
  const TensorF y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NEAR(y[1], 0.841345f, 1e-5f);   // torch.nn.functional.gelu(1.0)
  EXPECT_NEAR(y[2], -0.158655f, 1e-5f);  // torch.nn.functional.gelu(-1.0)
}

TEST(Gelu, GradcheckInput) {
  Gelu act;
  const auto res = gradcheck_input(act, random_input({2, 3, 8}, 15), 60, 1e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(Gelu, ApproachesIdentityForLargePositive) {
  Gelu act;
  TensorF x({1, 1, 1}, 10.0f);
  EXPECT_NEAR(act.forward(x)[0], 10.0f, 1e-5f);
}

// --- GELU kernel ---------------------------------------------------------------

/// The ISAs this host runs: scalar, plus avx2 where the CPU has it.
std::vector<util::Isa> runnable_isas() {
  std::vector<util::Isa> isas{util::Isa::kScalar};
  if (util::cpu_supports_avx2()) isas.push_back(util::Isa::kAvx2);
  return isas;
}

/// Every 4099th bit pattern that is a finite float (~1.05M values, both
/// signs, subnormals to FLT_MAX).
std::vector<float> strided_finite_floats() {
  std::vector<float> xs;
  for (std::uint64_t u = 0; u <= 0xFFFFFFFFull; u += 4099) {
    const auto bits = static_cast<std::uint32_t>(u);
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    if (std::isfinite(f)) xs.push_back(f);
  }
  return xs;
}

TEST(GeluKernel, WithinBoundOfExactGeluAndBitwiseAcrossIsas) {
  // |gelu − x·Φ(x)| ≤ 5e-7·max(1, |x|) against a double reference, densely
  // over [−10, 10] (step 2^-14) and strided over every finite float; the
  // avx2 tier must give the scalar tier's bytes (no FMA, IEEE divide).
  std::vector<float> xs = strided_finite_floats();
  for (int i = -10 * 16384; i <= 10 * 16384; ++i) {
    xs.push_back(static_cast<float>(i) / 16384.0f);
  }
  std::vector<float> scalar;
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    std::vector<float> y = xs;
    gelu_tile(y.data(), 1, static_cast<index_t>(y.size()),
              static_cast<index_t>(y.size()));
    if (isa == util::Isa::kScalar) {
      scalar = y;
    } else {
      EXPECT_EQ(0, std::memcmp(scalar.data(), y.data(),
                               y.size() * sizeof(float)))
          << util::isa_name(isa) << " differs from scalar";
    }
    double worst = 0.0, worst_x = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double x = xs[i];
      const double exact = 0.5 * x * std::erfc(-x / std::sqrt(2.0));
      const double err = std::abs(y[i] - exact) / std::max(1.0, std::abs(x));
      if (err > worst) {
        worst = err;
        worst_x = x;
      }
    }
    EXPECT_LE(worst, 5e-7) << util::isa_name(isa) << " worst at x = "
                           << worst_x;
  }
}

TEST(GeluKernel, NonFiniteInputs) {
  // +inf → +inf; NaN and −inf (−inf · 0) → NaN. The guard's non-finite
  // check depends on them staying non-finite. A row of 11 puts each input
  // in a vector lane and in the scalar tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    for (const index_t at : {index_t{2}, index_t{9}}) {
      for (const float x : {inf, -inf, nan, -nan}) {
        std::vector<float> row(11, 0.25f);
        row[static_cast<std::size_t>(at)] = x;
        gelu_tile(row.data(), 1, 11, 11);
        const float y = row[static_cast<std::size_t>(at)];
        if (x == inf) {
          EXPECT_EQ(y, inf) << util::isa_name(isa) << " at " << at;
        } else {
          EXPECT_TRUE(std::isnan(y))
              << util::isa_name(isa) << " gelu(" << x << ") = " << y;
        }
      }
    }
    // For x ≤ −5.66 the erf saturates at exactly −1, so gelu is −0.
    std::vector<float> row(9, -6.0f);
    gelu_tile(row.data(), 1, 9, 9);
    for (const float y : row) {
      EXPECT_EQ(y, 0.0f);
      EXPECT_TRUE(std::signbit(y)) << util::isa_name(isa);
    }
  }
}

// --- SpectralConv -------------------------------------------------------------

TEST(SpectralConv, OutputShape2D) {
  Rng rng(20);
  SpectralConv conv(3, 5, {4, 4}, rng);
  const TensorF y = conv.forward(random_input({2, 3, 8, 8}, 21));
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8, 8}));
}

TEST(SpectralConv, OutputShape3D) {
  Rng rng(22);
  SpectralConv conv(2, 2, {4, 4, 4}, rng);
  const TensorF y = conv.forward(random_input({1, 2, 10, 8, 8}, 23));
  EXPECT_EQ(y.shape(), (Shape{1, 2, 10, 8, 8}));
}

TEST(SpectralConv, WeightShapeMatchesConvention) {
  Rng rng(24);
  SpectralConv conv(3, 5, {8, 6}, rng);
  // (C_in, C_out, m1, m2/2+1, 2)
  EXPECT_EQ(conv.weight().value.shape(), (Shape{3, 5, 8, 4, 2}));
  EXPECT_EQ(conv.kept_modes(), 8 * 4);
}

TEST(SpectralConv, GradcheckInput2D) {
  Rng rng(26);
  SpectralConv conv(2, 3, {4, 4}, rng);
  const auto res =
      gradcheck_input(conv, random_input({2, 2, 8, 8}, 27), 60, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, GradcheckParameters2D) {
  Rng rng(28);
  SpectralConv conv(2, 2, {4, 4}, rng);
  const auto res =
      gradcheck_parameters(conv, random_input({2, 2, 8, 8}, 29), 80, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, GradcheckInput2DPooled) {
  ThreadPool::Scope scope(4);
  Rng rng(26);
  SpectralConv conv(2, 2, {4, 4}, rng);
  const auto res =
      gradcheck_input(conv, random_input({9, 2, 8, 8}, 27), 60, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, GradcheckParameters2DPooled) {
  // Batch 9 > kGradSlabs: the per-slab dW scratch buffers and their
  // fixed-order fold carry real concurrency here (4 workers), so the
  // analytic gradient is validated on the parallel path, not just serial.
  ThreadPool::Scope scope(4);
  Rng rng(28);
  SpectralConv conv(2, 2, {4, 4}, rng);
  const auto res =
      gradcheck_parameters(conv, random_input({9, 2, 8, 8}, 29), 80, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, BackwardBitwiseIdenticalAcrossThreadCounts) {
  const auto grads_at = [](std::size_t width) {
    ThreadPool::Scope scope(width);
    Rng rng(41);
    SpectralConv conv(3, 3, {4, 4}, rng);
    const TensorF x = random_input({9, 3, 8, 8}, 43);
    const TensorF y = conv.forward(x);
    const TensorF dx = conv.backward(random_input(y.shape(), 44));
    return std::tuple{dx, conv.weight().grad};
  };
  const auto [dx1, dw1] = grads_at(1);
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    const auto [dx, dw] = grads_at(width);
    for (index_t i = 0; i < dx1.size(); ++i) ASSERT_EQ(dx[i], dx1[i]) << i;
    for (index_t i = 0; i < dw1.size(); ++i) ASSERT_EQ(dw[i], dw1[i]) << i;
  }
}

TEST(SpectralConv, GradcheckInput3D) {
  Rng rng(30);
  SpectralConv conv(2, 2, {4, 4, 4}, rng);
  const auto res =
      gradcheck_input(conv, random_input({1, 2, 6, 8, 8}, 31), 50, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, GradcheckParameters3D) {
  Rng rng(32);
  SpectralConv conv(2, 2, {4, 4, 4}, rng);
  const auto res =
      gradcheck_parameters(conv, random_input({1, 2, 6, 8, 8}, 33), 80, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, GradcheckFullModeCoverage) {
  // n_modes equal to the grid extent: every mode retained.
  Rng rng(34);
  SpectralConv conv(2, 2, {8, 8}, rng);
  const auto res =
      gradcheck_input(conv, random_input({1, 2, 8, 8}, 35), 60, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConv, LowPassBehaviour) {
  // With weights = identity on kept modes, the layer acts as a low-pass
  // filter: a retained plane wave passes through, a truncated one vanishes.
  Rng rng(36);
  SpectralConv conv(1, 1, {4, 4}, rng);
  auto& w = conv.weight().value;
  w.fill(0.0f);
  // Identity weight: real part 1 for (i=0, o=0, every kept mode).
  for (index_t k = 0; k < conv.kept_modes(); ++k) {
    w[k * 2] = 1.0f;
  }
  const index_t n = 16;
  TensorF low({1, 1, n, n}), high({1, 1, n, n});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const double xi = static_cast<double>(i) / n;
      const double xj = static_cast<double>(j) / n;
      low(0, 0, i, j) =
          static_cast<float>(std::cos(2.0 * std::numbers::pi * (xi + xj)));
      high(0, 0, i, j) = static_cast<float>(
          std::cos(2.0 * std::numbers::pi * (6.0 * xi + 7.0 * xj)));
    }
  }
  const TensorF y_low = conv.forward(low);
  const TensorF y_high = conv.forward(high);
  double err_low = 0.0;
  for (index_t i = 0; i < y_low.size(); ++i) {
    err_low = std::max(err_low,
                       std::abs(static_cast<double>(y_low[i]) - low[i]));
  }
  EXPECT_LT(err_low, 1e-4);           // retained mode passes unchanged
  EXPECT_LT(y_high.max_abs(), 1e-4);  // truncated mode is annihilated
}

TEST(SpectralConv, RejectsOddModes) {
  Rng rng(38);
  EXPECT_THROW(SpectralConv(1, 1, {3, 4}, rng), CheckError);
}

TEST(SpectralConv, RejectsModesLargerThanGrid) {
  Rng rng(40);
  SpectralConv conv(1, 1, {16, 16}, rng);
  EXPECT_THROW(conv.forward(random_input({1, 1, 8, 8}, 41)), CheckError);
}

TEST(SpectralConv, ResolutionInvariantShapes) {
  // The same weights apply at any resolution ≥ the mode count — the
  // discretisation-agnostic property of neural operators.
  Rng rng(42);
  SpectralConv conv(1, 1, {4, 4}, rng);
  const TensorF y8 = conv.forward(random_input({1, 1, 8, 8}, 43));
  const TensorF y32 = conv.forward(random_input({1, 1, 32, 32}, 44));
  EXPECT_EQ(y8.shape(), (Shape{1, 1, 8, 8}));
  EXPECT_EQ(y32.shape(), (Shape{1, 1, 32, 32}));
}

TEST(SpectralConv, ConstantFieldScalesByDcWeight) {
  Rng rng(46);
  SpectralConv conv(1, 1, {4, 4}, rng);
  conv.weight().value.fill(0.0f);
  conv.weight().value[0] = 2.0f;  // DC mode, real part
  TensorF x({1, 1, 8, 8}, 3.0f);
  const TensorF y = conv.forward(x);
  for (index_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], 6.0f, 1e-4f);
  }
}

// --- SpectralConv mode pruning ------------------------------------------------

/// Save/restore the process-wide pruning switch around a test body.
struct PruningGuard {
  explicit PruningGuard(bool on) : saved(SpectralConv::pruning()) {
    SpectralConv::set_pruning(on);
  }
  ~PruningGuard() { SpectralConv::set_pruning(saved); }
  bool saved;
};

TEST(SpectralConvPruning, ForwardAndBackwardBitwiseInvariant) {
  // Pruned transforms must be bitwise identical to full ones — not merely
  // close. Grid 12 exercises Bluestein lines on both axes; modes 4 leaves
  // plenty of lines to skip.
  const auto run_at = [](bool prune) {
    PruningGuard guard(prune);
    Rng rng(81);
    SpectralConv conv(2, 3, {4, 4}, rng);
    const TensorF x = random_input({2, 2, 12, 12}, 82);
    const TensorF y = conv.forward(x);
    const TensorF dx = conv.backward(random_input(y.shape(), 83));
    return std::tuple{y, dx, conv.weight().grad};
  };
  const auto [y_full, dx_full, dw_full] = run_at(false);
  const auto [y_pruned, dx_pruned, dw_pruned] = run_at(true);
  ASSERT_EQ(y_pruned.shape(), y_full.shape());
  for (index_t i = 0; i < y_full.size(); ++i) {
    ASSERT_EQ(y_pruned[i], y_full[i]) << "forward i=" << i;
  }
  for (index_t i = 0; i < dx_full.size(); ++i) {
    ASSERT_EQ(dx_pruned[i], dx_full[i]) << "dx i=" << i;
  }
  for (index_t i = 0; i < dw_full.size(); ++i) {
    ASSERT_EQ(dw_pruned[i], dw_full[i]) << "dw i=" << i;
  }
}

TEST(SpectralConvPruning, BitwiseInvariantAcrossThreadCounts3D) {
  const auto run_at = [](bool prune, std::size_t width) {
    PruningGuard guard(prune);
    ThreadPool::Scope scope(width);
    Rng rng(85);
    SpectralConv conv(2, 2, {4, 4, 4}, rng);
    const TensorF x = random_input({1, 2, 10, 8, 8}, 86);
    const TensorF y = conv.forward(x);
    const TensorF dx = conv.backward(random_input(y.shape(), 87));
    return std::tuple{y, dx};
  };
  const auto [y_ref, dx_ref] = run_at(false, 1);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    const auto [y, dx] = run_at(true, width);
    for (index_t i = 0; i < y_ref.size(); ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << "width " << width << " i " << i;
    }
    for (index_t i = 0; i < dx_ref.size(); ++i) {
      ASSERT_EQ(dx[i], dx_ref[i]) << "width " << width << " i " << i;
    }
  }
}

TEST(SpectralConvPruning, GradcheckInputPruned) {
  // Grid (12) strictly larger than modes (4) so the pruned path really skips
  // lines; the analytic gradient must still match finite differences.
  PruningGuard guard(true);
  Rng rng(90);
  SpectralConv conv(2, 2, {4, 4}, rng);
  const auto res =
      gradcheck_input(conv, random_input({2, 2, 12, 12}, 91), 60, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

TEST(SpectralConvPruning, GradcheckParametersPruned) {
  PruningGuard guard(true);
  Rng rng(92);
  SpectralConv conv(2, 2, {4, 4}, rng);
  const auto res =
      gradcheck_parameters(conv, random_input({2, 2, 12, 12}, 93), 80, 2e-2f);
  EXPECT_TRUE(res.ok()) << "max rel err " << res.max_rel_error;
}

// --- Losses -------------------------------------------------------------------

TEST(Loss, MseValueAndGrad) {
  TensorF pred({1, 4}), target({1, 4});
  for (index_t i = 0; i < 4; ++i) {
    pred[i] = static_cast<float>(i);
    target[i] = 0.0f;
  }
  const LossResult res = mse_loss(pred, target);
  EXPECT_NEAR(res.value, (0.0 + 1.0 + 4.0 + 9.0) / 4.0, 1e-6);
  EXPECT_NEAR(res.grad[2], 2.0f * 2.0f / 4.0f, 1e-6f);
}

TEST(Loss, RelativeL2PerfectPredictionIsZero) {
  Rng rng(50);
  TensorF t({3, 8});
  t.fill_normal(rng, 0.0, 1.0);
  const LossResult res = relative_l2_loss(t, t);
  EXPECT_NEAR(res.value, 0.0, 1e-7);
}

TEST(Loss, RelativeL2ScaleInvariance) {
  // Scaling both prediction error and target by the same factor leaves the
  // relative loss unchanged.
  Rng rng(51);
  TensorF t({2, 16}), p({2, 16});
  t.fill_normal(rng, 0.0, 1.0);
  for (index_t i = 0; i < p.size(); ++i) p[i] = t[i] + 0.1f;
  const double base = relative_l2_loss(p, t).value;
  TensorF t2 = t, p2 = p;
  t2 *= 10.0f;
  for (index_t i = 0; i < p2.size(); ++i) p2[i] = t2[i] + 1.0f;
  EXPECT_NEAR(relative_l2_loss(p2, t2).value, base, 1e-5);
}

TEST(Loss, RelativeL2GradMatchesFiniteDifference) {
  Rng rng(52);
  TensorF t({2, 6}), p({2, 6});
  t.fill_normal(rng, 0.0, 1.0);
  p.fill_normal(rng, 0.0, 1.0);
  const LossResult res = relative_l2_loss(p, t);
  const float eps = 1e-3f;
  for (index_t i = 0; i < p.size(); i += 3) {
    TensorF pp = p;
    pp[i] += eps;
    const double lp = relative_l2_loss(pp, t).value;
    pp[i] -= 2 * eps;
    const double lm = relative_l2_loss(pp, t).value;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(res.grad[i], numeric, 2e-3) << "i=" << i;
  }
}

TEST(Loss, MetricMatchesLossValue) {
  Rng rng(53);
  TensorF t({4, 10}), p({4, 10});
  t.fill_normal(rng, 0.0, 1.0);
  p.fill_normal(rng, 0.0, 1.0);
  EXPECT_NEAR(relative_l2_error(p, t), relative_l2_loss(p, t).value, 1e-7);
}

// --- Optimizer ------------------------------------------------------------------

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise ‖w − w*‖² for a random target w*.
  Rng rng(60);
  Parameter p("w", {8});
  p.value.fill_normal(rng, 0.0, 1.0);
  TensorF target({8});
  target.fill_normal(rng, 0.0, 1.0);

  Adam::Config cfg;
  cfg.lr = 0.05;
  cfg.weight_decay = 0.0;
  Adam opt({&p}, cfg);
  for (int iter = 0; iter < 500; ++iter) {
    opt.zero_grad();
    for (index_t i = 0; i < 8; ++i) {
      p.grad[i] = 2.0f * (p.value[i] - target[i]);
    }
    opt.step();
  }
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(p.value[i], target[i], 1e-3f);
  }
}

TEST(Adam, FirstStepIsLrSizedSignedStep) {
  // With bias correction, the very first Adam update is ≈ lr·sign(g).
  Parameter p("w", {2});
  p.value[0] = 1.0f;
  p.value[1] = -1.0f;
  Adam::Config cfg;
  cfg.lr = 0.1;
  cfg.weight_decay = 0.0;
  Adam opt({&p}, cfg);
  p.grad[0] = 0.5f;
  p.grad[1] = -3.0f;
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f, 1e-4f);
  EXPECT_NEAR(p.value[1], -1.0f + 0.1f, 1e-4f);
}

TEST(Adam, WeightDecayPullsTowardZero) {
  Parameter p("w", {1});
  p.value[0] = 1.0f;
  Adam::Config cfg;
  cfg.lr = 0.01;
  cfg.weight_decay = 1.0;
  Adam opt({&p}, cfg);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();  // gradient identically zero; only decay acts
    opt.step();
  }
  EXPECT_LT(std::abs(p.value[0]), 0.5f);
}

TEST(StepLR, HalvesEveryStep) {
  Parameter p("w", {1});
  Adam::Config cfg;
  cfg.lr = 1e-3;
  Adam opt({&p}, cfg);
  StepLR sched(opt, 100, 0.5);
  for (int e = 0; e < 99; ++e) sched.step();
  EXPECT_DOUBLE_EQ(opt.lr(), 1e-3);  // epoch 99: not yet dropped
  sched.step();                      // epoch 100
  EXPECT_DOUBLE_EQ(opt.lr(), 5e-4);
  for (int e = 0; e < 100; ++e) sched.step();
  EXPECT_DOUBLE_EQ(opt.lr(), 2.5e-4);
}

// --- DataLoader -------------------------------------------------------------------

TEST(DataLoader, CoversAllSamplesOncePerEpoch) {
  const index_t n = 17;
  TensorF x({n, 2}), y({n, 1});
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<float>(i);
    x(i, 1) = 0.0f;
    y(i, 0) = static_cast<float>(i);
  }
  DataLoader loader(x, y, 5, /*shuffle=*/true, 7);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  Batch batch;
  index_t total = 0;
  while (loader.next(batch)) {
    for (index_t b = 0; b < batch.size(); ++b) {
      ++seen[static_cast<std::size_t>(batch.x(b, 0))];
      // x/y pairing must survive the shuffle
      ASSERT_EQ(batch.x(b, 0), batch.y(b, 0));
    }
    total += batch.size();
  }
  EXPECT_EQ(total, n);
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(DataLoader, LastBatchIsShort) {
  TensorF x({10, 1}), y({10, 1});
  DataLoader loader(x, y, 4, false);
  Batch batch;
  std::vector<index_t> sizes;
  while (loader.next(batch)) sizes.push_back(batch.size());
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 2);
  EXPECT_EQ(loader.num_batches(), 3);
}

TEST(DataLoader, ShuffleChangesOrderBetweenEpochs) {
  const index_t n = 64;
  TensorF x({n, 1}), y({n, 1});
  for (index_t i = 0; i < n; ++i) x(i, 0) = static_cast<float>(i);
  DataLoader loader(x, y, n, true, 5);
  Batch a, b;
  loader.next(a);
  loader.start_epoch();
  loader.next(b);
  int diffs = 0;
  for (index_t i = 0; i < n; ++i) {
    if (a.x(i, 0) != b.x(i, 0)) ++diffs;
  }
  EXPECT_GT(diffs, 10);
}

TEST(DataLoader, NoShuffleKeepsOrder) {
  TensorF x({5, 1}), y({5, 1});
  for (index_t i = 0; i < 5; ++i) x(i, 0) = static_cast<float>(i);
  DataLoader loader(x, y, 2, false);
  Batch batch;
  loader.next(batch);
  EXPECT_EQ(batch.x(0, 0), 0.0f);
  EXPECT_EQ(batch.x(1, 0), 1.0f);
}

TEST(DataLoader, MismatchedSampleCountsRejected) {
  TensorF x({4, 1}), y({5, 1});
  EXPECT_THROW(DataLoader(x, y, 2), CheckError);
}

// --- Serialization ------------------------------------------------------------------

TEST(Serialize, RoundTripRestoresValues) {
  Rng rng(70);
  Linear a(3, 4, rng), b(3, 4, rng);
  // Give b different values, then load a's checkpoint into it.
  const std::string path = testing::TempDir() + "/params_test.tnn";
  save_parameters(path, a.parameters());
  load_parameters(path, b.parameters());
  EXPECT_EQ(b.weight().value.span().size(), a.weight().value.span().size());
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
  for (index_t i = 0; i < a.bias().value.size(); ++i) {
    ASSERT_EQ(a.bias().value[i], b.bias().value[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(71);
  Linear a(3, 4, rng);
  Linear c(3, 5, rng);  // same names, different shapes
  const std::string path = testing::TempDir() + "/params_mismatch.tnn";
  save_parameters(path, a.parameters());
  EXPECT_THROW(load_parameters(path, c.parameters()), CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, MetadataRoundTrip) {
  Rng rng(73);
  Linear a(2, 3, rng), b(2, 3, rng);
  const std::string path = testing::TempDir() + "/params_meta.tnn";
  const Metadata meta{{"norm_mean", -0.125}, {"norm_std", 2.5},
                      {"dt_tc", 0.005}};
  save_parameters(path, a.parameters(), meta);
  Metadata loaded;
  load_parameters(path, b.parameters(), &loaded);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.at("norm_mean"), -0.125);
  EXPECT_DOUBLE_EQ(loaded.at("norm_std"), 2.5);
  EXPECT_DOUBLE_EQ(loaded.at("dt_tc"), 0.005);
  std::remove(path.c_str());
}

TEST(Serialize, EmptyMetadataByDefault) {
  Rng rng(74);
  Linear a(2, 2, rng);
  const std::string path = testing::TempDir() + "/params_nometa.tnn";
  save_parameters(path, a.parameters());
  Metadata loaded{{"stale", 1.0}};
  load_parameters(path, a.parameters(), &loaded);
  EXPECT_TRUE(loaded.empty());  // cleared, nothing stored
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileRejected) {
  Rng rng(72);
  Linear a(2, 2, rng);
  EXPECT_THROW(load_parameters("/nonexistent/path.tnn", a.parameters()),
               CheckError);
}

}  // namespace
}  // namespace turb::nn
