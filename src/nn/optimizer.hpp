// Optimizers and learning-rate schedules.
#pragma once

#include <vector>

#include "nn/parameter.hpp"

namespace turb::nn {

/// Adam (Kingma & Ba) with optional decoupled weight decay, matching the
/// PyTorch defaults used by the reference FNO training scripts.
class Adam {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 1e-4;  // the neuraloperator training default
  };

  Adam(std::vector<Parameter*> params, Config config);

  /// Apply one update from the accumulated gradients.
  void step();

  /// Clear every parameter gradient.
  void zero_grad();

  [[nodiscard]] double lr() const { return config_.lr; }
  void set_lr(double lr) { config_.lr = lr; }

  /// Full optimizer state (moments + step count) for exact restore after a
  /// fault — the trainer snapshots this alongside the weights so recovery
  /// from a non-finite loss resumes bitwise from the last good epoch.
  struct State {
    std::vector<TensorF> m;
    std::vector<TensorF> v;
    long t = 0;
  };
  [[nodiscard]] State state() const { return {m_, v_, t_}; }
  void set_state(State state);

 private:
  std::vector<Parameter*> params_;
  Config config_;
  std::vector<TensorF> m_;  // first moment per parameter
  std::vector<TensorF> v_;  // second moment per parameter
  long t_ = 0;
};

/// StepLR: multiply the learning rate by gamma every step_size epochs —
/// the schedule used throughout the paper (gamma 0.5, step 100).
class StepLR {
 public:
  StepLR(Adam& optimizer, long step_size, double gamma)
      : optimizer_(&optimizer), step_size_(step_size), gamma_(gamma),
        base_lr_(optimizer.lr()) {}

  /// Advance one epoch and update the optimizer's learning rate.
  void step();

  [[nodiscard]] long epoch() const { return epoch_; }
  [[nodiscard]] double current_lr() const;

 private:
  Adam* optimizer_;
  long step_size_;
  double gamma_;
  double base_lr_;
  long epoch_ = 0;
};

}  // namespace turb::nn
