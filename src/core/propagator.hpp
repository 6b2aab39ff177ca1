// Propagator abstraction: anything that can extend a trajectory of velocity
// snapshots — a PDE solver, a trained FNO surrogate, or the hybrid
// alternation of the two (the paper's contribution).
//
// All fields are non-dimensional (unit box, U₀ = 1); times are in units of
// the convective time t_c; snapshots are spaced `dt_snap` apart.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace turb::core {

/// One instant of the flow.
struct FieldSnapshot {
  double t = 0.0;
  TensorD u1;
  TensorD u2;
};

/// Rolling trajectory: most recent snapshot at back().
using History = std::deque<FieldSnapshot>;

class Propagator {
 public:
  virtual ~Propagator() = default;

  /// Produce `count` snapshots extending `history`, each `dt_snap()` apart.
  /// Implementations read as much of the history as they need (a PDE solver
  /// uses only the last snapshot; an FNO surrogate needs its full input
  /// window).
  virtual std::vector<FieldSnapshot> advance(const History& history,
                                             index_t count) = 0;

  /// Snapshot spacing in t_c units.
  [[nodiscard]] virtual double dt_snap() const = 0;

  /// Minimum history length advance() requires.
  [[nodiscard]] virtual index_t min_history() const = 0;

  /// The (ny, nx) shape every snapshot field must have, or an empty shape
  /// when advance() takes any frame (the default). validate_request()
  /// checks seeds against it, so a mismatch is rejected before it runs.
  [[nodiscard]] virtual Shape frame_shape() const { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace turb::core
