// Fault-injecting propagator wrapper for the robustness test suite and the
// tier-1 smoke check: behaves like the wrapped propagator for a configurable
// number of snapshots, then corrupts its output (NaN injection or amplitude
// blow-up) — a deterministic stand-in for an FNO surrogate drifting off the
// turbulence attractor.
#pragma once

#include <limits>

#include "core/propagator.hpp"

namespace turb::core {

class DivergentPropagator final : public Propagator {
 public:
  enum class Mode {
    nan,     ///< poison the first velocity value with a quiet NaN
    blowup,  ///< scale both velocity components by `blowup_factor`
  };

  /// @param inner              propagator to wrap (not owned; must outlive)
  /// @param healthy_snapshots  snapshots passed through before corruption
  DivergentPropagator(Propagator& inner, index_t healthy_snapshots,
                      Mode mode = Mode::nan, double blowup_factor = 1e6)
      : inner_(&inner), healthy_(healthy_snapshots), mode_(mode),
        blowup_factor_(blowup_factor) {}

  std::vector<FieldSnapshot> advance(const History& history,
                                     index_t count) override {
    std::vector<FieldSnapshot> out = inner_->advance(history, count);
    for (FieldSnapshot& snap : out) {
      if (++produced_ <= healthy_) continue;
      if (mode_ == Mode::nan) {
        snap.u1[0] = std::numeric_limits<double>::quiet_NaN();
      } else {
        for (index_t i = 0; i < snap.u1.size(); ++i) {
          snap.u1[i] *= blowup_factor_;
          snap.u2[i] *= blowup_factor_;
        }
      }
    }
    return out;
  }

  [[nodiscard]] double dt_snap() const override { return inner_->dt_snap(); }
  [[nodiscard]] index_t min_history() const override {
    return inner_->min_history();
  }
  [[nodiscard]] Shape frame_shape() const override {
    return inner_->frame_shape();
  }
  [[nodiscard]] std::string name() const override { return "divergent"; }

  /// Snapshots produced so far (healthy + corrupted).
  [[nodiscard]] index_t produced() const { return produced_; }

 private:
  Propagator* inner_;
  index_t healthy_;
  Mode mode_;
  double blowup_factor_;
  index_t produced_ = 0;
};

}  // namespace turb::core
