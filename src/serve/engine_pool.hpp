// Shape-bucketed inference-engine pool for the serving layer.
//
// Micro-batching concurrent rollout sessions means driving `forward_raw`
// at many different batch widths: a full scheduling chunk of k streams
// plans (2k, C_in, H, W), the tail chunk something smaller, and mixed-grid
// workloads add (H, W) variants. InferenceEngine intentionally owns exactly
// one planned layout at a time — re-planning re-lays the arena and defeats
// the zero-steady-state-allocation contract — so the pool keeps one engine
// per distinct (batch, C_in, H, W) bucket and hands out planned engines on
// demand. Buckets are created on first use and live for the pool's
// lifetime; a steady serving mix therefore allocates nothing after the
// first round (counted by serve/engine_pool_hits vs _misses).
#pragma once

#include <map>
#include <memory>

#include "fno/fno.hpp"
#include "infer/engine.hpp"

namespace turb::serve {

/// Bucket key: the planned input shape (batch, C_in, H, W) of an engine.
struct EngineKey {
  index_t batch = 0;
  index_t cin = 0;
  index_t h = 0;
  index_t w = 0;
  auto operator<=>(const EngineKey&) const = default;
};

class EnginePool {
 public:
  /// @param model trained FNO all pooled engines execute (not owned; must
  ///              outlive the pool).
  explicit EnginePool(fno::Fno& model);

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// Planned engine for input shape (batch, cin, h, w): returns the bucket's
  /// engine, creating and planning it on first use. The reference is stable
  /// for the pool's lifetime. Counters: serve/engine_pool_hits on reuse,
  /// serve/engine_pool_misses on bucket creation.
  infer::InferenceEngine& acquire(index_t batch, index_t cin, index_t h,
                                  index_t w);

  /// Re-snapshot the model's weights into every pooled engine (after
  /// further training steps).
  void refresh_weights();

  [[nodiscard]] std::size_t size() const { return engines_.size(); }

  /// Sum of the pooled engines' arena footprints.
  [[nodiscard]] std::size_t total_arena_bytes() const;

 private:
  fno::Fno* model_;
  std::map<EngineKey, std::unique_ptr<infer::InferenceEngine>> engines_;
};

}  // namespace turb::serve
