#include "nn/physics_loss.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "fft/fftnd.hpp"
#include "ns/spectral_ops.hpp"
#include "util/thread_pool.hpp"

namespace turb::nn {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

using cpxf = std::complex<float>;

/// d = ∂x u1 + ∂y u2 for one (H, W) pair, float spectral derivatives.
TensorF pair_divergence(const float* u1, const float* u2, index_t h,
                        index_t w) {
  TensorF f1({h, w}), f2({h, w});
  std::copy_n(u1, h * w, f1.data());
  std::copy_n(u2, h * w, f2.data());
  Tensor<cpxf> s1 = fft::rfftn(f1, 2);
  Tensor<cpxf> s2 = fft::rfftn(f2, 2);
  for (index_t iy = 0; iy < h; ++iy) {
    const auto ky = static_cast<float>(kTwoPi * ns::deriv_freq(iy, h));
    for (index_t ix = 0; ix < w / 2 + 1; ++ix) {
      const auto kx = static_cast<float>(kTwoPi * ns::deriv_freq(ix, w));
      // i·kx·û1 + i·ky·û2
      s1(iy, ix) = cpxf(0.0f, kx) * s1(iy, ix) + cpxf(0.0f, ky) * s2(iy, ix);
    }
  }
  return fft::irfftn(s1, 2, w);
}

/// In-place gradient contribution: g1 -= scale·∂x d, g2 -= scale·∂y d
/// (the −∂ comes from the skew-adjointness of the spectral derivative).
void accumulate_adjoint(const TensorF& d, float scale, float* g1, float* g2,
                        index_t h, index_t w) {
  Tensor<cpxf> sd = fft::rfftn(d, 2);
  Tensor<cpxf> s1({h, w / 2 + 1}), s2({h, w / 2 + 1});
  for (index_t iy = 0; iy < h; ++iy) {
    const auto ky = static_cast<float>(kTwoPi * ns::deriv_freq(iy, h));
    for (index_t ix = 0; ix < w / 2 + 1; ++ix) {
      const auto kx = static_cast<float>(kTwoPi * ns::deriv_freq(ix, w));
      s1(iy, ix) = cpxf(0.0f, kx) * sd(iy, ix);
      s2(iy, ix) = cpxf(0.0f, ky) * sd(iy, ix);
    }
  }
  const TensorF d1 = fft::irfftn(s1, 2, w);
  const TensorF d2 = fft::irfftn(s2, 2, w);
  for (index_t i = 0; i < h * w; ++i) {
    g1[i] -= scale * d1[i];
    g2[i] -= scale * d2[i];
  }
}

void check_pair_shape(const TensorF& pred, index_t k_steps) {
  TURB_CHECK_MSG(pred.rank() == 4, "expected (N, 2K, H, W)");
  TURB_CHECK_MSG(pred.dim(1) == 2 * k_steps,
                 "channel dim " << pred.dim(1)
                                << " does not hold 2x" << k_steps
                                << " velocity-pair snapshots");
}

}  // namespace

LossResult divergence_penalty(const TensorF& pred, index_t k_steps) {
  check_pair_shape(pred, k_steps);
  const index_t batch = pred.dim(0);
  const index_t h = pred.dim(2);
  const index_t w = pred.dim(3);
  const index_t frame = h * w;
  const double norm = 1.0 / static_cast<double>(batch * k_steps * frame);

  LossResult res;
  res.grad = TensorF(pred.shape());
  // Per-task values, summed in index order after the region: the value's
  // bits do not depend on the order in which the pool finishes tasks.
  std::vector<double> values(static_cast<std::size_t>(batch * k_steps));
  parallel_for(0, batch * k_steps, [&](index_t t) {
    const index_t n = t / k_steps;
    const index_t k = t % k_steps;
    const float* u1 = pred.data() + ((n * 2 * k_steps) + k) * frame;
    const float* u2 = pred.data() + ((n * 2 * k_steps) + k_steps + k) * frame;
    const TensorF d = pair_divergence(u1, u2, h, w);
    values[static_cast<std::size_t>(t)] = d.squared_norm() * norm;
    float* g1 = res.grad.data() + ((n * 2 * k_steps) + k) * frame;
    float* g2 =
        res.grad.data() + ((n * 2 * k_steps) + k_steps + k) * frame;
    accumulate_adjoint(d, static_cast<float>(2.0 * norm), g1, g2, h, w);
  });
  res.value = 0.0;
  for (const double v : values) res.value += v;
  return res;
}

double mean_squared_divergence(const TensorF& pred, index_t k_steps) {
  check_pair_shape(pred, k_steps);
  const index_t batch = pred.dim(0);
  const index_t h = pred.dim(2);
  const index_t w = pred.dim(3);
  const index_t frame = h * w;
  double total = 0.0;
  for (index_t n = 0; n < batch; ++n) {
    for (index_t k = 0; k < k_steps; ++k) {
      const float* u1 = pred.data() + ((n * 2 * k_steps) + k) * frame;
      const float* u2 =
          pred.data() + ((n * 2 * k_steps) + k_steps + k) * frame;
      total += pair_divergence(u1, u2, h, w).squared_norm();
    }
  }
  return total / static_cast<double>(batch * k_steps * frame);
}

LossResult physics_informed_loss(const TensorF& pred, const TensorF& target,
                                 index_t k_steps, double div_weight) {
  TURB_CHECK(div_weight >= 0.0);
  LossResult data_term = relative_l2_loss(pred, target);
  if (div_weight == 0.0) return data_term;
  const LossResult div_term = divergence_penalty(pred, k_steps);
  data_term.value += div_weight * div_term.value;
  data_term.grad.add_scaled(div_term.grad, static_cast<float>(div_weight));
  return data_term;
}

}  // namespace turb::nn
