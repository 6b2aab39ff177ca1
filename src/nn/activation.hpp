// Pointwise activation layers and the one GELU kernel.
#pragma once

#include <algorithm>
#include <string>

#include "nn/module.hpp"

namespace turb::nn {

/// Rational approximation of erf (the coefficients of Eigen's
/// generic_fast_erf_float): erf(x) ≈ x·P(x²)/Q(x²) with x clamped to
/// [−4, 4], where it evaluates to exactly ±1. Max |error| 4.2e-7 on [−8, 8].
///
/// Plain multiplies and adds (the build's -ffp-contract=off keeps them
/// unfused), one IEEE divide and min/max clamps — operations that round the
/// same in a scalar register and in an AVX2 lane, which is what makes the
/// avx2 tier of gelu_tile() bitwise equal to this expression. The clamp's
/// operand order matches _mm256_min_ps/_mm256_max_ps, so NaN passes through.
inline float erf_rational(float x) {
  x = std::max(std::min(x, 4.0f), -4.0f);
  const float x2 = x * x;
  float p = x2 * -2.72614225801306e-10f + 2.77068142495902e-08f;
  p = x2 * p + -2.10102402082508e-06f;
  p = x2 * p + -5.69250639462346e-05f;
  p = x2 * p + -7.34990630326855e-04f;
  p = x2 * p + -2.95459980854025e-03f;
  p = x2 * p + -1.60960333262415e-02f;
  p = x * p;
  float q = x2 * -1.45660718464996e-05f + -2.13374055278905e-04f;
  q = x2 * q + -1.68282697438203e-03f;
  q = x2 * q + -7.37332916720468e-03f;
  q = x2 * q + -1.42647390514189e-02f;
  return p / q;
}

/// Exact-form GELU, gelu(x) = x · Φ(x) = x/2 · (1 + erf(x/√2)), with erf
/// from erf_rational(): |gelu(x) − x·Φ(x)| ≤ 5e-7·max(1, |x|). +inf maps to
/// +inf, NaN and −inf (−inf · 0) to NaN. The per-element expression of
/// gelu_tile(); array callers go through the kernel.
inline float gelu(float x) {
  constexpr float inv_sqrt2 = 0.70710678118654752f;
  return 0.5f * x * (1.0f + erf_rational(x * inv_sqrt2));
}

/// The GELU kernel behind Gelu::forward and the inference engine's fused
/// epilogues. Over a rows × cols tile of `y` with row stride `ld`, in place:
///
///   y[r·ld + j] = gelu(y[r·ld + j])                                 no bias
///   y[r·ld + j] = gelu(y[r·ld + j] + bias[r])                       no skip
///   y[r·ld + j] = gelu(y[r·ld + j] + (skip[r·ld_skip + j] + bias[r]))
///
/// (the skip form needs a bias). Dispatches on util::active_isa() once per
/// call and bumps isa/gelu_dispatch_{scalar,avx2}. Both tiers produce the
/// bits of gelu() for every element, wherever it sits in a row: the avx2
/// lanes round exactly like the scalar expression and the row tails call it.
void gelu_tile(float* y, index_t rows, index_t cols, index_t ld,
               const float* bias = nullptr, const float* skip = nullptr,
               index_t ld_skip = 0);

/// Layer form of gelu_tile().
class Gelu : public Module {
 public:
  explicit Gelu(std::string name = "gelu") : name_(std::move(name)) {}

  TensorF forward(const TensorF& x) override;
  TensorF backward(const TensorF& grad_out) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  TensorF input_;
};

/// Identity layer (placeholder in configurable stacks).
class Identity : public Module {
 public:
  TensorF forward(const TensorF& x) override { return x; }
  TensorF backward(const TensorF& g) override { return g; }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

}  // namespace turb::nn
