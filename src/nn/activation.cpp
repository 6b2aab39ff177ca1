#include "nn/activation.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace turb::nn {

TensorF Gelu::forward(const TensorF& x) {
  TURB_TRACE_SCOPE("nn/gelu_fwd");
  input_ = x;
  TensorF y(x.shape());
  const float* in = x.data();
  float* out = y.data();
  parallel_for_chunked(0, x.size(), [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) out[i] = gelu(in[i]);
  });
  return y;
}

TensorF Gelu::backward(const TensorF& grad_out) {
  TURB_TRACE_SCOPE("nn/gelu_bwd");
  TURB_CHECK(grad_out.size() == input_.size());
  TensorF grad_in(input_.shape());
  const float* in = input_.data();
  const float* g = grad_out.data();
  float* out = grad_in.data();
  parallel_for_chunked(0, input_.size(), [&](index_t b, index_t e) {
    constexpr float inv_sqrt2 = 0.70710678118654752f;
    constexpr float inv_sqrt2pi = 0.39894228040143268f;
    for (index_t i = b; i < e; ++i) {
      const float v = in[i];
      const float phi = std::exp(-0.5f * v * v) * inv_sqrt2pi;   // pdf
      const float cdf = 0.5f * (1.0f + std::erf(v * inv_sqrt2));  // cdf
      out[i] = g[i] * (cdf + v * phi);
    }
  });
  return grad_in;
}

}  // namespace turb::nn
