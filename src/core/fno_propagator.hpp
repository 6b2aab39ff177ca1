// FNO propagator: a trained "2D FNO with temporal channels" model behind the
// Propagator interface. Each velocity component is advanced by the same
// operator (components ride the batch axis, matching the paper's training
// setup); inputs are normalised with the statistics the model was trained
// under and predictions are de-normalised on the way out.
//
// Serving path: the propagator owns an inference engine (src/infer) planned
// for the (2, C_in, H, W) window shape. Marshalling is fused into the
// engine's arena — history snapshots are cast + normalised straight into the
// engine's window buffer and predictions are de-normalised during snapshot
// extraction — so advance_into() performs zero heap allocations once its
// output snapshots are warm.
#pragma once

#include "analysis/stats.hpp"
#include "core/propagator.hpp"
#include "fno/fno.hpp"
#include "infer/engine.hpp"

namespace turb::core {

class FnoPropagator final : public Propagator {
 public:
  /// @param model      trained rank-2 FNO (not owned; must outlive this)
  /// @param normalizer data-set normaliser used during training
  /// @param dt_snap    snapshot spacing the model was trained at (t_c units)
  FnoPropagator(fno::Fno& model, analysis::Normalizer normalizer,
                double dt_snap);

  std::vector<FieldSnapshot> advance(const History& history,
                                     index_t count) override;

  /// Allocation-free variant: writes `count` snapshots into `out`, reusing
  /// its tensors when the shapes already match (the steady state of a hybrid
  /// run). advance() wraps this. Delegates to advance_batched_into with a
  /// single stream on the propagator's own engine.
  void advance_into(const History& history, index_t count,
                    std::vector<FieldSnapshot>& out);

  /// Micro-batched serving path: advance `n_streams` independent histories
  /// through one engine planned for (2·n_streams, C_in, H, W) — stream s's
  /// velocity components ride batch entries 2s and 2s+1. Because every
  /// engine kernel processes batch entries on independent slabs, each
  /// stream's snapshots are bitwise identical to a solo advance_into() of
  /// the same history, for any co-batch composition. Streams may request
  /// heterogeneous `counts` (each >= 1); shorter streams simply stop
  /// extracting while the batch finishes the longest request. All histories
  /// must share the grid resolution. `engine` is typically drawn from a
  /// serve::EnginePool bucket; it must wrap the same model as this
  /// propagator.
  void advance_batched_into(infer::InferenceEngine& engine,
                            const History* const* histories,
                            const index_t* counts, index_t n_streams,
                            std::vector<FieldSnapshot>* const* outs);

  [[nodiscard]] double dt_snap() const override { return dt_snap_; }
  [[nodiscard]] index_t min_history() const override {
    return model_->config().in_channels;
  }
  [[nodiscard]] std::string name() const override { return "fno"; }

  /// The planned executor (arena introspection for benches/tests).
  [[nodiscard]] infer::InferenceEngine& engine() { return engine_; }

  /// The wrapped model (serve::EnginePool builds batch-width engines on it).
  [[nodiscard]] fno::Fno& model() const { return *model_; }

 private:
  fno::Fno* model_;
  infer::InferenceEngine engine_;
  analysis::Normalizer normalizer_;
  double dt_snap_;
};

}  // namespace turb::core
