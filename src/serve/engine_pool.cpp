#include "serve/engine_pool.hpp"

#include "obs/obs.hpp"
#include "util/isa.hpp"

namespace turb::serve {

EnginePool::EnginePool(fno::Fno& model) : model_(&model) {}

infer::InferenceEngine& EnginePool::acquire(index_t batch, index_t cin,
                                            index_t h, index_t w) {
  TURB_CHECK(batch >= 1 && cin >= 1 && h >= 1 && w >= 1);
  static obs::Gauge& isa = obs::gauge("isa/active");
  static obs::Counter& hits = obs::counter("serve/engine_pool_hits");
  // Serving attribution: keep isa/active live in every --metrics-out
  // snapshot the serving path produces (resolution publishes the gauge;
  // re-publishing here covers snapshots taken after a ScopedIsa restored
  // an unresolved state).
  isa.set(static_cast<double>(static_cast<int>(util::active_isa())));
  const EngineKey key{batch, cin, h, w};
  auto it = engines_.find(key);
  if (it != engines_.end()) {
    hits.add();
    // plan() on a matching shape is the allocation-free fast path; it only
    // refreshes the captured thread pool (the pool may have been resized
    // between scheduling rounds).
    it->second->plan({batch, cin, h, w});
    return *it->second;
  }
  obs::counter("serve/engine_pool_misses").add();
  auto engine = std::make_unique<infer::InferenceEngine>(*model_);
  engine->plan({batch, cin, h, w});
  it = engines_.emplace(key, std::move(engine)).first;
  obs::gauge("serve/engine_pool_buckets")
      .set(static_cast<double>(engines_.size()));
  return *it->second;
}

void EnginePool::refresh_weights() {
  for (auto& [key, engine] : engines_) engine->refresh_weights();
}

std::size_t EnginePool::total_arena_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, engine] : engines_) total += engine->arena_bytes();
  return total;
}

}  // namespace turb::serve
