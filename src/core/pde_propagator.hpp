// PDE propagator: wraps a Navier–Stokes solver behind the Propagator
// interface. Initialising from a velocity snapshot applies the Leray
// projection, which is the mechanism by which the hybrid scheme pulls FNO
// predictions back onto the divergence-free manifold (paper Fig. 8).
#pragma once

#include <memory>

#include "core/propagator.hpp"
#include "ns/solver.hpp"

namespace turb::core {

class PdePropagator final : public Propagator {
 public:
  /// @param solver   configured NS solver (its dt is the inner time step)
  /// @param dt_snap  snapshot spacing in t_c units; must be an integer
  ///                 multiple of the solver dt (checked).
  PdePropagator(std::unique_ptr<ns::NsSolver> solver, double dt_snap);

  std::vector<FieldSnapshot> advance(const History& history,
                                     index_t count) override;
  [[nodiscard]] double dt_snap() const override { return dt_snap_; }
  [[nodiscard]] index_t min_history() const override { return 1; }
  /// The solver's (n, n) grid.
  [[nodiscard]] Shape frame_shape() const override {
    const index_t n = solver_->config().n;
    return {n, n};
  }
  [[nodiscard]] std::string name() const override { return "pde"; }

  [[nodiscard]] const ns::NsSolver& solver() const { return *solver_; }

 private:
  std::unique_ptr<ns::NsSolver> solver_;
  double dt_snap_;
  index_t steps_per_snap_;
};

}  // namespace turb::core
