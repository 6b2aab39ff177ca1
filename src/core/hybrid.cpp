#include "core/hybrid.hpp"

#include <utility>

namespace turb::core {

HybridScheduler::HybridScheduler(Propagator& fno, Propagator& pde,
                                 HybridConfig config)
    : fno_(&fno), pde_(&pde), config_(config) {
  const std::string spacing = spacing_mismatch(fno, pde);
  TURB_CHECK_MSG(spacing.empty(), spacing);
  TURB_CHECK(config_.fno_snapshots >= 0 && config_.pde_snapshots >= 0);
  TURB_CHECK_MSG(config_.fno_snapshots > 0 || config_.pde_snapshots > 0,
                 "at least one window must be non-empty");
}

RolloutResult HybridScheduler::run(const History& seed,
                                   index_t total_snapshots) {
  // Pure PDE runs the PDE as the primary, unguarded: the guard only ever
  // judges surrogate windows.
  const bool pure_pde = config_.fno_snapshots == 0;
  RolloutRequest request;
  request.seed = seed;
  request.steps = total_snapshots;
  request.window = pure_pde ? config_.pde_snapshots : config_.fno_snapshots;
  if (!pure_pde) request.guard = config_.guard;
  RolloutStream stream(std::move(request), pure_pde ? pde_ : fno_, pde_,
                       pure_pde ? 0 : config_.pde_snapshots);
  while (!stream.done()) stream.step();
  return stream.take_result();
}

}  // namespace turb::core
