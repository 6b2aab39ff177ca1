// Pointwise activation layers.
#pragma once

#include <cmath>
#include <string>

#include "nn/module.hpp"

namespace turb::nn {

/// Exact (erf-based) GELU, matching PyTorch's default:
///   gelu(x) = x · Φ(x) = x/2 · (1 + erf(x/√2))
/// The one expression behind Gelu::forward and the inference engine's fused
/// epilogues, so the two paths round identically.
inline float gelu(float x) {
  constexpr float inv_sqrt2 = 0.70710678118654752f;
  return 0.5f * x * (1.0f + std::erf(x * inv_sqrt2));
}

/// Layer form of gelu().
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
