#include "nn/sobolev_loss.hpp"

#include <cmath>

#include "fft/fftnd.hpp"
#include "ns/spectral_ops.hpp"

namespace turb::nn {

namespace {

using cpxf = std::complex<float>;

/// Weighted spectral energy Σ_k m_k w_k |f̂_k|² / M of one (H, W) channel,
/// and optionally the physical-space image of ΛᵀΛ f (for the gradient).
double weighted_energy(const float* f, index_t h, index_t w, double s,
                       TensorF* lambda2_f) {
  TensorF field({h, w});
  std::copy_n(f, h * w, field.data());
  Tensor<cpxf> spec = fft::rfftn(field, 2);
  const double inv_m = 1.0 / static_cast<double>(h * w);
  double energy = 0.0;
  for (index_t iy = 0; iy < h; ++iy) {
    const double ky = ns::fft_freq(iy, h);
    for (index_t ix = 0; ix < w / 2 + 1; ++ix) {
      const double kx = static_cast<double>(ix);
      const double weight = 1.0 + s * (kx * kx + ky * ky);
      const double mult = (ix == 0 || 2 * ix == w) ? 1.0 : 2.0;
      energy += mult * weight * std::norm(spec(iy, ix)) * inv_m;
      if (lambda2_f != nullptr) {
        spec(iy, ix) *= static_cast<float>(weight);
      }
    }
  }
  if (lambda2_f != nullptr) {
    *lambda2_f = fft::irfftn(spec, 2, w);
  }
  return energy;
}

void check_inputs(const TensorF& pred, const TensorF& target) {
  TURB_CHECK(pred.shape() == target.shape());
  TURB_CHECK_MSG(pred.rank() == 4, "sobolev loss expects (N, C, H, W)");
}

}  // namespace

LossResult sobolev_loss(const TensorF& pred, const TensorF& target,
                        double s) {
  check_inputs(pred, target);
  TURB_CHECK(s >= 0.0);
  const index_t batch = pred.dim(0);
  const index_t channels = pred.dim(1);
  const index_t h = pred.dim(2);
  const index_t w = pred.dim(3);
  const index_t frame = h * w;

  LossResult res;
  res.grad = TensorF(pred.shape());
  double total = 0.0;
  std::vector<float> diff(static_cast<std::size_t>(frame));
  for (index_t n = 0; n < batch; ++n) {
    double num2 = 0.0, den2 = 0.0;
    std::vector<TensorF> lambda2(static_cast<std::size_t>(channels));
    for (index_t c = 0; c < channels; ++c) {
      const float* p = pred.data() + (n * channels + c) * frame;
      const float* t = target.data() + (n * channels + c) * frame;
      for (index_t i = 0; i < frame; ++i) diff[static_cast<std::size_t>(i)] = p[i] - t[i];
      num2 += weighted_energy(diff.data(), h, w, s,
                              &lambda2[static_cast<std::size_t>(c)]);
      den2 += weighted_energy(t, h, w, s, nullptr);
    }
    const double num = std::sqrt(std::max(num2, 1e-30));
    const double den = std::sqrt(std::max(den2, 1e-30));
    total += num / den;
    const double scale = 1.0 / (num * den * static_cast<double>(batch));
    for (index_t c = 0; c < channels; ++c) {
      float* g = res.grad.data() + (n * channels + c) * frame;
      const TensorF& l2f = lambda2[static_cast<std::size_t>(c)];
      for (index_t i = 0; i < frame; ++i) {
        g[i] = static_cast<float>(l2f[i] * scale);
      }
    }
  }
  res.value = total / static_cast<double>(batch);
  return res;
}

double sobolev_error(const TensorF& pred, const TensorF& target, double s) {
  check_inputs(pred, target);
  const index_t batch = pred.dim(0);
  const index_t channels = pred.dim(1);
  const index_t h = pred.dim(2);
  const index_t w = pred.dim(3);
  const index_t frame = h * w;
  std::vector<float> diff(static_cast<std::size_t>(frame));
  double total = 0.0;
  for (index_t n = 0; n < batch; ++n) {
    double num2 = 0.0, den2 = 0.0;
    for (index_t c = 0; c < channels; ++c) {
      const float* p = pred.data() + (n * channels + c) * frame;
      const float* t = target.data() + (n * channels + c) * frame;
      for (index_t i = 0; i < frame; ++i) diff[static_cast<std::size_t>(i)] = p[i] - t[i];
      num2 += weighted_energy(diff.data(), h, w, s, nullptr);
      den2 += weighted_energy(t, h, w, s, nullptr);
    }
    total += std::sqrt(std::max(num2, 1e-30)) /
             std::sqrt(std::max(den2, 1e-30));
  }
  return total / static_cast<double>(batch);
}

}  // namespace turb::nn
