// The Fourier Neural Operator model (rank 2 or 3).
//
// Architecture (modern `neuraloperator` FNO — reproduces the paper's Table I
// parameter counts exactly; see tests/test_fno.cpp):
//
//   lifting:    Linear(in → lifting_channels) → GELU → Linear(→ width)
//   n_layers ×: x ← act( SpectralConv(x) + Linear_skip(x) )
//               (GELU on all blocks except the last)
//   projection: Linear(width → projection_channels) → GELU → Linear(→ out)
//
// The same class implements both model families of the paper:
//   * "2D FNO with temporal channels": rank-2 modes, time snapshots stacked
//     as input/output channels (in=10, out∈{1..10}).
//   * "3D FNO": rank-3 modes over (t, x, y), in=out=1 field channel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/spectral_conv.hpp"
#include "util/rng.hpp"

namespace turb::fno {

struct FnoConfig {
  index_t in_channels = 10;
  index_t out_channels = 10;
  index_t width = 40;
  index_t n_layers = 4;
  std::vector<index_t> n_modes{32, 32};  // rank 2 (spatial) or 3 (t, x, y)
  index_t lifting_channels = 256;
  index_t projection_channels = 256;

  [[nodiscard]] std::size_t rank() const { return n_modes.size(); }
};

class Fno : public nn::Module {
 public:
  Fno(FnoConfig config, Rng& rng);

  TensorF forward(const TensorF& x) override;
  TensorF backward(const TensorF& grad_out) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;
  [[nodiscard]] std::string name() const override { return "fno"; }

  [[nodiscard]] const FnoConfig& config() const { return config_; }

  // Layer access for the inference engine (src/infer), which prepacks the
  // weights and replays the exact forward() dataflow out of an arena.
  [[nodiscard]] nn::Linear& lift1() { return lift1_; }
  [[nodiscard]] nn::Linear& lift2() { return lift2_; }
  [[nodiscard]] nn::Linear& proj1() { return proj1_; }
  [[nodiscard]] nn::Linear& proj2() { return proj2_; }
  [[nodiscard]] nn::SpectralConv& conv(index_t l) { return *convs_[l]; }
  [[nodiscard]] nn::Linear& skip(index_t l) { return *skips_[l]; }

 private:
  FnoConfig config_;
  nn::Linear lift1_;
  nn::Gelu lift_act_;
  nn::Linear lift2_;
  std::vector<std::unique_ptr<nn::SpectralConv>> convs_;
  std::vector<std::unique_ptr<nn::Linear>> skips_;
  std::vector<std::unique_ptr<nn::Gelu>> acts_;  // n_layers-1 activations
  nn::Linear proj1_;
  nn::Gelu proj_act_;
  nn::Linear proj2_;
};

/// Closed-form trainable-parameter count for a config (used to cross-check
/// the instantiated model and to regenerate the paper's Table I without
/// allocating the 222M-parameter 3D models).
index_t fno_parameter_count(const FnoConfig& config);

}  // namespace turb::fno
