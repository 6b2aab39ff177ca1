// Serving layer: unified rollout requests, micro-batched concurrent
// sessions, admission control, and per-stream guard degradation.
//
// The load-bearing contract is bitwise reproducibility: N sessions
// multiplexed through serve::RolloutServer must produce exactly the bytes N
// sequential core::run_rollout calls produce, at thread-pool widths 1 and 4,
// and a session tripping its guard must not perturb its batchmates by a
// single bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "core/ensemble.hpp"
#include "core/fault_injection.hpp"
#include "core/fno_propagator.hpp"
#include "core/hybrid.hpp"
#include "core/pde_propagator.hpp"
#include "core/rollout_api.hpp"
#include "fno/fno.hpp"
#include "lbm/initializer.hpp"
#include "ns/solver.hpp"
#include "obs/obs.hpp"
#include "serve/ensemble_session.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

constexpr index_t kGrid = 32;
constexpr double kDtSnap = 0.01;

std::unique_ptr<ns::NsSolver> make_solver() {
  ns::NsConfig cfg;
  cfg.n = kGrid;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  return std::make_unique<ns::SpectralNsSolver>(cfg);
}

core::FieldSnapshot make_seed_snapshot(double t, std::uint64_t seed) {
  Rng rng(seed);
  const auto field = lbm::random_vortex_velocity(kGrid, kGrid, 4.0, 1.0, rng);
  core::FieldSnapshot snap;
  snap.t = t;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  return snap;
}

core::History make_seed_history(index_t n, std::uint64_t seed) {
  core::History history;
  history.push_back(make_seed_snapshot(0.0, seed));
  if (n > 1) {
    core::PdePropagator pde(make_solver(), kDtSnap);
    auto more = pde.advance(history, n - 1);
    for (auto& s : more) history.push_back(std::move(s));
  }
  return history;
}

fno::FnoConfig tiny_fno_config() {
  fno::FnoConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 6;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  return cfg;
}

void expect_bitwise_equal(const core::RolloutResult& a,
                          const core::RolloutResult& b) {
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t k = 0; k < a.trajectory.size(); ++k) {
    ASSERT_EQ(a.trajectory[k].t, b.trajectory[k].t);
    ASSERT_EQ(a.producer[k], b.producer[k]);
    for (index_t i = 0; i < a.trajectory[k].u1.size(); ++i) {
      ASSERT_EQ(a.trajectory[k].u1[i], b.trajectory[k].u1[i])
          << "snapshot " << k << " u1[" << i << "]";
      ASSERT_EQ(a.trajectory[k].u2[i], b.trajectory[k].u2[i])
          << "snapshot " << k << " u2[" << i << "]";
    }
  }
}

bool all_finite(const core::RolloutResult& result) {
  for (const auto& snap : result.trajectory) {
    for (index_t i = 0; i < snap.u1.size(); ++i) {
      if (!std::isfinite(snap.u1[i]) || !std::isfinite(snap.u2[i])) {
        return false;
      }
    }
  }
  return true;
}

// --- unified request API -------------------------------------------------

TEST(RolloutApi, RunRolloutMatchesLegacyWindowedLoop) {
  Rng rng(7);
  fno::Fno model(tiny_fno_config(), rng);
  core::FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0),
                               kDtSnap);
  const core::History seed = make_seed_history(4, 11);
  const index_t steps = 20;  // spans two window-16 chunks

  // Replica of the historical windowed loop: advance in chunks of 16 with a
  // 64-snapshot history — the unified API's defaults must reproduce it
  // exactly.
  core::History history = seed;
  core::RolloutResult legacy;
  index_t produced = 0;
  while (produced < steps) {
    const index_t count = std::min<index_t>(16, steps - produced);
    auto snaps = fno_prop.advance(history, count);
    for (auto& snap : snaps) {
      history.push_back(snap);
      legacy.trajectory.push_back(std::move(snap));
      legacy.producer.push_back("fno");
      while (static_cast<index_t>(history.size()) > 64) history.pop_front();
    }
    produced += count;
  }

  core::RolloutRequest request;
  request.seed = seed;
  request.steps = steps;
  const core::RolloutResult unified = core::run_rollout(fno_prop, request);
  expect_bitwise_equal(legacy, unified);
}

TEST(RolloutApi, GuardedRequestNeedsFallback) {
  core::PdePropagator pde(make_solver(), kDtSnap);
  core::RolloutRequest request;
  request.seed = make_seed_history(1, 13);
  request.steps = 4;
  request.guard.enabled = true;
  EXPECT_THROW(core::run_rollout(pde, request), CheckError);
}

TEST(RolloutApi, CooldownZeroDegradesForGood) {
  Rng rng(17);
  fno::Fno model(tiny_fno_config(), rng);
  core::FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0),
                               kDtSnap);
  core::DivergentPropagator divergent(fno_prop, /*healthy_snapshots=*/2,
                                      core::DivergentPropagator::Mode::nan);
  core::PdePropagator pde(make_solver(), kDtSnap);

  core::RolloutRequest request;
  request.seed = make_seed_history(4, 19);
  request.steps = 10;
  request.window = 4;
  request.guard.enabled = true;
  request.guard.cooldown_snapshots = 0;  // degrade for the remainder

  const core::RolloutResult result =
      core::run_rollout(divergent, request, &pde);
  ASSERT_EQ(result.trajectory.size(), 10u);
  EXPECT_TRUE(all_finite(result));
  ASSERT_GE(result.guard_trips(), 1);
  // The first window tripped and was discarded; every produced snapshot
  // came from the fallback.
  for (const std::string& producer : result.producer) {
    EXPECT_EQ(producer, "pde_fallback");
  }
}

TEST(RolloutApi, CooldownWindowReturnsToPrimary) {
  core::PdePropagator healthy(make_solver(), kDtSnap);
  core::DivergentPropagator divergent(healthy, /*healthy_snapshots=*/1,
                                      core::DivergentPropagator::Mode::nan);
  core::PdePropagator fallback(make_solver(), kDtSnap);

  core::RolloutRequest request;
  request.seed = make_seed_history(1, 23);
  request.steps = 8;
  request.window = 2;
  request.guard.enabled = true;
  request.guard.cooldown_snapshots = 2;

  const core::RolloutResult result =
      core::run_rollout(divergent, request, &fallback);
  ASSERT_EQ(result.trajectory.size(), 8u);
  EXPECT_TRUE(all_finite(result));
  ASSERT_GE(result.guard_trips(), 1);
  // Fallback windows appear, and the primary got another turn after the
  // cool-down (trips again, so multiple guard events accumulate).
  EXPECT_GE(result.guard_trips(), 2);
  for (const std::string& producer : result.producer) {
    EXPECT_EQ(producer, "pde_fallback");
  }
}

TEST(RolloutGuardState, StatsAccumulateCopyAndReset) {
  core::GuardConfig cfg;
  cfg.enabled = true;
  cfg.energy_max = 1e3;
  core::RolloutGuard guard(cfg);

  core::FieldSnapshot snap = make_seed_snapshot(0.0, 29);
  const core::SnapshotMetrics metrics = core::compute_metrics(snap);
  EXPECT_EQ(guard.check(snap, metrics, nullptr), core::GuardTrip::none);
  EXPECT_EQ(guard.stats().checked, 1);
  EXPECT_EQ(guard.stats().trips, 0);
  EXPECT_GT(guard.stats().energy_max_seen, 0.0);

  snap.u1[0] = std::numeric_limits<double>::quiet_NaN();
  // Re-derive the diagnostics: the guard keys its non-finite verdict on the
  // metric sums the scheduler hands it, exactly as the rollout paths do.
  EXPECT_EQ(guard.check(snap, core::compute_metrics(snap), nullptr),
            core::GuardTrip::non_finite);
  EXPECT_EQ(guard.stats().checked, 2);
  EXPECT_EQ(guard.stats().trips, 1);
  EXPECT_EQ(guard.stats().last_trip, core::GuardTrip::non_finite);

  // Per-stream cloning is a plain value copy carrying the band statistics.
  core::RolloutGuard clone = guard;
  EXPECT_EQ(clone.stats().checked, 2);
  EXPECT_EQ(clone.stats().trips, 1);

  // A reused session starts from clean statistics.
  guard.reset();
  EXPECT_EQ(guard.stats().checked, 0);
  EXPECT_EQ(guard.stats().trips, 0);
  EXPECT_EQ(guard.stats().last_trip, core::GuardTrip::none);
  EXPECT_EQ(clone.stats().checked, 2);  // the clone is unaffected
}

// --- concurrent serving --------------------------------------------------

class ServeFixture : public ::testing::Test {
 protected:
  ServeFixture()
      : rng_(41),
        model_(tiny_fno_config(), rng_),
        fno_prop_(model_, analysis::Normalizer(0.0, 1.0), kDtSnap),
        pde_prop_(make_solver(), kDtSnap) {}

  core::RolloutRequest request_for(std::uint64_t seed, index_t steps) {
    core::RolloutRequest request;
    request.seed = make_seed_history(4, seed);
    request.steps = steps;
    request.tag = "seed-" + std::to_string(seed);
    return request;
  }

  Rng rng_;
  fno::Fno model_;
  core::FnoPropagator fno_prop_;
  core::PdePropagator pde_prop_;
};

TEST_F(ServeFixture, ConcurrentSessionsBitwiseMatchSequential) {
  const std::vector<std::uint64_t> seeds = {101, 103, 107, 109, 113};
  const index_t steps = 20;  // two scheduling windows per session

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(threads);

    std::vector<core::RolloutResult> sequential;
    for (const std::uint64_t seed : seeds) {
      sequential.push_back(
          core::run_rollout(fno_prop_, request_for(seed, steps)));
    }

    serve::ServeConfig cfg;
    cfg.batch_window = 3;  // forces a 3-stream chunk and a 2-stream tail
    serve::RolloutServer server(fno_prop_, &pde_prop_, cfg);
    std::vector<serve::SessionId> ids;
    for (const std::uint64_t seed : seeds) {
      const serve::Admission admission =
          server.submit(request_for(seed, steps));
      ASSERT_TRUE(admission.admitted) << admission.reason;
      ids.push_back(admission.id);
    }
    server.drain();
    EXPECT_GT(server.mean_batch_occupancy(), 1.0);

    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const core::RolloutResult concurrent = server.take(ids[i]);
      expect_bitwise_equal(sequential[i], concurrent);
    }
  }
}

TEST_F(ServeFixture, TrippedSoloSessionDegradesWithoutPerturbingBatchmates) {
  const std::vector<std::uint64_t> seeds = {211, 223};
  const index_t steps = 12;

  std::vector<core::RolloutResult> sequential;
  for (const std::uint64_t seed : seeds) {
    sequential.push_back(
        core::run_rollout(fno_prop_, request_for(seed, steps)));
  }

  serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});
  std::vector<serve::SessionId> ids;
  for (const std::uint64_t seed : seeds) {
    ids.push_back(server.submit(request_for(seed, steps)).id);
  }

  // A divergent surrogate session rides along with its own propagator and a
  // guard; it must finish finite on the PDE fallback while the healthy
  // sessions' bytes are untouched.
  core::DivergentPropagator divergent(fno_prop_, /*healthy_snapshots=*/2,
                                      core::DivergentPropagator::Mode::nan);
  core::RolloutRequest bad = request_for(227, steps);
  bad.window = 4;
  bad.guard.enabled = true;
  bad.guard.cooldown_snapshots = 0;
  const serve::Admission bad_admission =
      server.submit_with_propagator(std::move(bad), divergent, &pde_prop_);
  ASSERT_TRUE(bad_admission.admitted) << bad_admission.reason;

  server.drain();

  const core::RolloutResult tripped = server.take(bad_admission.id);
  ASSERT_EQ(tripped.trajectory.size(), static_cast<std::size_t>(steps));
  EXPECT_TRUE(all_finite(tripped));
  EXPECT_GE(tripped.guard_trips(), 1);
  for (const std::string& producer : tripped.producer) {
    EXPECT_EQ(producer, "pde_fallback");
  }

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const core::RolloutResult concurrent = server.take(ids[i]);
    expect_bitwise_equal(sequential[i], concurrent);
  }
}

TEST_F(ServeFixture, AdmissionRejectsAtQueueCapAndRecovers) {
  serve::ServeConfig cfg;
  cfg.queue_capacity = 2;
  serve::RolloutServer server(fno_prop_, &pde_prop_, cfg);

  const std::int64_t rejects_before =
      obs::counter("serve/admission_rejects").value();
  ASSERT_TRUE(server.submit(request_for(301, 4)).admitted);
  ASSERT_TRUE(server.submit(request_for(303, 4)).admitted);
  const serve::Admission overflow = server.submit(request_for(307, 4));
  EXPECT_FALSE(overflow.admitted);
  EXPECT_NE(overflow.reason.find("saturated"), std::string::npos)
      << overflow.reason;
  EXPECT_EQ(obs::counter("serve/admission_rejects").value(),
            rejects_before + 1);
  EXPECT_EQ(server.queue_depth(), 2);

  server.drain();
  EXPECT_EQ(server.queue_depth(), 0);
  EXPECT_TRUE(server.submit(request_for(307, 4)).admitted);
  server.drain();
  EXPECT_EQ(server.finished().size(), 3u);

  const serve::RolloutServer::LatencyStats latency = server.latency_stats();
  EXPECT_EQ(latency.completed, 3);
  EXPECT_GT(latency.p50_ms, 0.0);
  EXPECT_GE(latency.p99_ms, latency.p50_ms);
}

TEST_F(ServeFixture, InvalidRequestsRejectWithReasonInsteadOfThrowing) {
  // One validator: every invalid request is rejected by submit() and throws
  // from run_rollout() with the same reason.
  struct Case {
    const char* fragment;  ///< expected in the reason
    core::RolloutRequest request;
    core::Propagator* fallback;
  };
  std::vector<Case> cases;
  cases.push_back({"steps", request_for(401, 4), &pde_prop_});
  cases.back().request.steps = 0;
  cases.push_back({"window", request_for(402, 4), &pde_prop_});
  cases.back().request.window = 0;
  cases.push_back({"empty seed", request_for(403, 4), &pde_prop_});
  cases.back().request.seed.clear();
  cases.push_back({"seed holds 2", request_for(404, 4), &pde_prop_});
  cases.back().request.seed.resize(2);  // below the FNO's 4-snapshot window
  cases.push_back({"fallback", request_for(405, 4), nullptr});
  cases.back().request.guard.enabled = true;
  // A seed whose snapshots disagree on shape: an older 16² snapshot under a
  // 32² newest one, and a 16×64 u2 beside a 32×32 u1 (same element count).
  cases.push_back({"seed snapshot 0 has u1 [16, 16] and u2 [16, 16]",
                   request_for(406, 4), &pde_prop_});
  cases.back().request.seed.front().u1 = TensorD({16, 16});
  cases.back().request.seed.front().u2 = TensorD({16, 16});
  cases.push_back({"seed snapshot 3 has u1 [32, 32] and u2 [16, 64]",
                   request_for(407, 4), &pde_prop_});
  cases.back().request.seed.back().u2 = TensorD({16, 64});
  // A consistent 16² seed the FNO takes but the 32² PDE fallback cannot:
  // admitted, it would throw from the solver once the guard trips.
  core::RolloutRequest small = request_for(408, 4);
  small.guard.enabled = true;
  for (core::FieldSnapshot& snap : small.seed) {
    snap.u1 = TensorD({16, 16}, 0.5);
    snap.u2 = TensorD({16, 16}, -0.25);
  }
  cases.push_back({"seed frame [16, 16] does not fit pde, which needs [32, 32]",
                   small, &pde_prop_});

  for (const Case& c : cases) {
    serve::RolloutServer server(fno_prop_, c.fallback, serve::ServeConfig{});
    const serve::Admission a = server.submit(c.request);
    EXPECT_FALSE(a.admitted) << c.fragment;
    EXPECT_NE(a.reason.find(c.fragment), std::string::npos) << a.reason;
    try {
      (void)core::run_rollout(fno_prop_, c.request, c.fallback);
      ADD_FAILURE() << "run_rollout accepted: " << c.fragment;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(a.reason), std::string::npos)
          << e.what() << " vs " << a.reason;
    }
  }

  // The same seed behind a diverging FNO through submit_with_propagator;
  // the fault-injection wrapper reports the frame of what it wraps.
  serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});
  core::DivergentPropagator divergent(fno_prop_, /*healthy_snapshots=*/4,
                                      core::DivergentPropagator::Mode::nan);
  const serve::Admission a =
      server.submit_with_propagator(small, divergent, &pde_prop_);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("needs [32, 32]"), std::string::npos) << a.reason;
  core::DivergentPropagator divergent_pde(pde_prop_, /*healthy_snapshots=*/4);
  EXPECT_EQ(divergent_pde.frame_shape(), (Shape{32, 32}));

  // A scheduled fallback window (the hybrid's PDE window) runs even an
  // unguarded request on the fallback, so the stream checks that frame too.
  small.guard.enabled = false;
  try {
    core::RolloutStream stream(small, &fno_prop_, &pde_prop_,
                               /*scheduled_window=*/2);
    ADD_FAILURE() << "stream accepted a seed its scheduled fallback cannot run";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("needs [32, 32]"), std::string::npos)
        << e.what();
  }
}

TEST_F(ServeFixture, FallbackWithOtherSnapshotSpacingRejected) {
  // A fallback window must continue the primary's time axis: a 0.02-spaced
  // PDE behind a 0.01-spaced FNO is refused by the stream, by admission and
  // by the server constructor alike.
  core::PdePropagator coarse(make_solver(), 2 * kDtSnap);
  core::RolloutRequest request = request_for(431, 6);
  request.guard.enabled = true;
  EXPECT_THROW(serve::RolloutServer(fno_prop_, &coarse, serve::ServeConfig{}),
               CheckError);

  serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});
  const serve::Admission a =
      server.submit_with_propagator(request, fno_prop_, &coarse);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("spacing"), std::string::npos) << a.reason;
  try {
    (void)core::run_rollout(fno_prop_, request, &coarse);
    ADD_FAILURE() << "run_rollout accepted a 0.02-spaced fallback";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(a.reason), std::string::npos)
        << e.what();
  }
}

TEST_F(ServeFixture, EnginePoolReusesBucketsAndStaysAllocationFree) {
  serve::ServeConfig cfg;
  cfg.batch_window = 4;
  serve::RolloutServer server(fno_prop_, &pde_prop_, cfg);

  const auto run_wave = [this, &server](std::uint64_t base) {
    std::vector<serve::SessionId> ids;
    for (std::uint64_t s = 0; s < 4; ++s) {
      const serve::Admission admission =
          server.submit(request_for(base + s, 8));
      ASSERT_TRUE(admission.admitted) << admission.reason;
      ids.push_back(admission.id);
    }
    server.drain();
    for (const serve::SessionId id : ids) (void)server.take(id);
  };

  run_wave(501);
  // One bucket: every round batches all 4 streams at (8, C_in, H, W).
  EXPECT_EQ(server.engine_pool().size(), 1u);
  const std::int64_t misses_after_first =
      obs::counter("serve/engine_pool_misses").value();
  const std::int64_t steady_before =
      obs::counter("infer/steady_state_allocs").value();

  run_wave(601);  // warm wave: same shapes, same bucket
  EXPECT_EQ(server.engine_pool().size(), 1u);
  EXPECT_EQ(obs::counter("serve/engine_pool_misses").value(),
            misses_after_first);
  EXPECT_GT(obs::counter("serve/engine_pool_hits").value(), 0);
  // The pooled engine never re-plans once its bucket is warm.
  EXPECT_EQ(obs::counter("infer/steady_state_allocs").value(), steady_before);
  EXPECT_GT(server.engine_pool().total_arena_bytes(), 0u);
}

// --- edge cases -----------------------------------------------------------

TEST_F(ServeFixture, ZeroStepRequestRejectedWithoutConsumingQueueSlot) {
  serve::ServeConfig cfg;
  cfg.queue_capacity = 1;
  serve::RolloutServer server(fno_prop_, &pde_prop_, cfg);

  core::RolloutRequest zero = request_for(411, 4);
  zero.steps = 0;
  const serve::Admission a = server.submit(std::move(zero));
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("steps"), std::string::npos) << a.reason;
  // The rejected request must not occupy the (capacity-1) queue.
  ASSERT_TRUE(server.submit(request_for(413, 4)).admitted);
  server.drain();
}

TEST_F(ServeFixture, SeedExactlyMinHistoryAdmittedOneBelowRejected) {
  serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});
  const index_t min_history = fno_prop_.min_history();

  core::RolloutRequest exact = request_for(421, 6);
  ASSERT_EQ(static_cast<index_t>(exact.seed.size()), min_history);
  core::RolloutRequest below = request_for(421, 6);
  below.seed.resize(static_cast<std::size_t>(min_history - 1));

  EXPECT_FALSE(server.submit(std::move(below)).admitted);
  const serve::Admission a = server.submit(request_for(421, 6));
  ASSERT_TRUE(a.admitted) << a.reason;
  server.drain();
  // The boundary-length session must still match a sequential rollout.
  expect_bitwise_equal(core::run_rollout(fno_prop_, request_for(421, 6)),
                       server.take(a.id));
}

TEST_F(ServeFixture, EnginePoolAlternatingBucketsCountedOnce) {
  // Two resolutions alternate: each bucket is planned exactly once (two
  // misses total), every later wave hits its existing bucket.
  serve::ServeConfig cfg;
  cfg.batch_window = 4;
  serve::RolloutServer server(fno_prop_, &pde_prop_, cfg);

  const auto raw_history = [](index_t grid, std::uint64_t seed) {
    core::History history;
    for (index_t i = 0; i < 4; ++i) {
      Rng rng(seed * 100 + static_cast<std::uint64_t>(i));
      const auto field =
          lbm::random_vortex_velocity(grid, grid, 4.0, 1.0, rng);
      core::FieldSnapshot snap;
      snap.t = kDtSnap * static_cast<double>(i);
      snap.u1 = field.u1;
      snap.u2 = field.u2;
      history.push_back(std::move(snap));
    }
    return history;
  };
  const auto run_wave = [&](index_t grid, std::uint64_t base) {
    std::vector<serve::SessionId> ids;
    for (std::uint64_t s = 0; s < 4; ++s) {
      core::RolloutRequest request;
      request.seed = raw_history(grid, base + s);
      request.steps = 6;
      const serve::Admission admission = server.submit(std::move(request));
      ASSERT_TRUE(admission.admitted) << admission.reason;
      ids.push_back(admission.id);
    }
    server.drain();
    for (const serve::SessionId id : ids) (void)server.take(id);
  };

  const std::int64_t misses_before =
      obs::counter("serve/engine_pool_misses").value();
  const std::int64_t hits_before =
      obs::counter("serve/engine_pool_hits").value();
  run_wave(32, 701);  // miss: grid-32 bucket planned
  run_wave(16, 801);  // miss: grid-16 bucket planned
  EXPECT_EQ(server.engine_pool().size(), 2u);
  EXPECT_EQ(obs::counter("serve/engine_pool_misses").value(),
            misses_before + 2);
  run_wave(32, 901);  // hit
  run_wave(16, 1001);  // hit
  run_wave(32, 1101);  // hit
  EXPECT_EQ(server.engine_pool().size(), 2u);
  EXPECT_EQ(obs::counter("serve/engine_pool_misses").value(),
            misses_before + 2);
  EXPECT_GE(obs::counter("serve/engine_pool_hits").value() - hits_before, 3);
}

// --- percentile edge cases ------------------------------------------------

TEST(NearestRankPercentile, EmptySingleBoundariesAndClamping) {
  const std::vector<double> empty;
  EXPECT_EQ(serve::nearest_rank_percentile(empty, 0.5), 0.0);
  EXPECT_EQ(serve::nearest_rank_percentile(empty, 0.0), 0.0);
  EXPECT_EQ(serve::nearest_rank_percentile(empty, 1.0), 0.0);

  const std::vector<double> one = {42.0};
  EXPECT_EQ(serve::nearest_rank_percentile(one, 0.0), 42.0);
  EXPECT_EQ(serve::nearest_rank_percentile(one, 0.5), 42.0);
  EXPECT_EQ(serve::nearest_rank_percentile(one, 1.0), 42.0);

  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 0.0), 1.0);
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 0.25), 1.0);
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 0.5), 2.0);
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 0.75), 3.0);
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 0.99), 4.0);
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 1.0), 4.0);
  // Out-of-range probabilities clamp instead of underflowing the rank.
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, -0.5), 1.0);
  EXPECT_EQ(serve::nearest_rank_percentile(sorted, 1.5), 4.0);
}

// --- ensemble UQ serving --------------------------------------------------

void expect_spread_bitwise_equal(const core::RolloutResult& a,
                                 const core::RolloutResult& b) {
  ASSERT_EQ(a.spread.size(), b.spread.size());
  for (std::size_t k = 0; k < a.spread.size(); ++k) {
    EXPECT_EQ(a.spread[k].variance, b.spread[k].variance) << "snapshot " << k;
    EXPECT_EQ(a.spread[k].rel_spread, b.spread[k].rel_spread);
    EXPECT_EQ(a.spread[k].energy_mean, b.spread[k].energy_mean);
    EXPECT_EQ(a.spread[k].energy_spread, b.spread[k].energy_spread);
    EXPECT_EQ(a.spread[k].enstrophy_mean, b.spread[k].enstrophy_mean);
    EXPECT_EQ(a.spread[k].enstrophy_spread, b.spread[k].enstrophy_spread);
  }
}

class EnsembleServeFixture : public ServeFixture {
 protected:
  core::RolloutRequest ensemble_request(std::uint64_t seed, index_t steps,
                                        index_t k, double eps) {
    core::RolloutRequest request = request_for(seed, steps);
    request.ensemble_k = k;
    request.ensemble_eps = eps;
    request.ensemble_seed = 0xabcd + seed;
    return request;
  }

  core::RolloutResult serve_one(core::RolloutRequest request) {
    serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});
    const serve::Admission a = server.submit(std::move(request));
    EXPECT_TRUE(a.admitted) << a.reason;
    server.drain();
    return server.take(a.id);
  }
};

TEST_F(EnsembleServeFixture, KOneIsAPlainSessionBitwise) {
  const index_t steps = 12;
  const core::RolloutResult solo =
      core::run_rollout(fno_prop_, request_for(601, steps));
  const core::RolloutResult served =
      serve_one(ensemble_request(601, steps, /*k=*/1, /*eps=*/1e-3));
  expect_bitwise_equal(solo, served);
  EXPECT_EQ(served.ensemble_members, 1);
  EXPECT_TRUE(served.spread.empty());
  EXPECT_TRUE(served.member_results.empty());
}

TEST_F(EnsembleServeFixture, MembersBitwiseMatchSoloRolloutsAtThreads1And4) {
  const index_t steps = 20;  // two scheduling windows per member
  const index_t k = 3;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(threads);

    core::RolloutRequest base = ensemble_request(607, steps, k, 1e-3);
    base.ensemble_keep_members = true;

    // Each ensemble member must be bitwise identical to a solo rollout of
    // that member's derived request — the determinism contract that makes
    // the ensemble exactly K co-batched sessions, not an approximation.
    std::vector<core::RolloutResult> solos;
    for (index_t m = 0; m < k; ++m) {
      solos.push_back(core::run_rollout(
          fno_prop_, core::ensemble_member_request(base, m)));
    }

    const core::RolloutResult served = serve_one(std::move(base));
    EXPECT_EQ(served.ensemble_members, k);
    ASSERT_EQ(served.member_results.size(), static_cast<std::size_t>(k));
    for (index_t m = 0; m < k; ++m) {
      expect_bitwise_equal(solos[static_cast<std::size_t>(m)],
                           served.member_results[static_cast<std::size_t>(m)]);
    }
    ASSERT_EQ(served.spread.size(), static_cast<std::size_t>(steps));
    for (const auto& row : served.spread) {
      EXPECT_TRUE(std::isfinite(row.variance));
      EXPECT_GT(row.variance, 0.0);  // perturbed members genuinely differ
      EXPECT_GT(row.energy_spread, 0.0);
    }
  }
}

TEST_F(EnsembleServeFixture, IdenticalMembersReduceToExactlyZeroVariance) {
  const index_t steps = 12;
  const core::RolloutResult solo =
      core::run_rollout(fno_prop_, request_for(613, steps));

  // eps = 0: all four members run the identical seed, so the anchored
  // reduction must return a mean bitwise equal to member 0 and variance
  // exactly 0.0 — not merely small — at every snapshot.
  const core::RolloutResult served =
      serve_one(ensemble_request(613, steps, /*k=*/4, /*eps=*/0.0));
  EXPECT_EQ(served.ensemble_members, 4);
  expect_bitwise_equal(solo, served);
  ASSERT_EQ(served.spread.size(), static_cast<std::size_t>(steps));
  for (const auto& row : served.spread) {
    EXPECT_EQ(row.variance, 0.0);
    EXPECT_EQ(row.rel_spread, 0.0);
    EXPECT_EQ(row.energy_spread, 0.0);
    EXPECT_EQ(row.enstrophy_spread, 0.0);
  }
}

TEST_F(EnsembleServeFixture, SpreadCalibratedResultsReproduceAcrossServers) {
  const index_t steps = 20;
  const auto make_request = [this] {
    core::RolloutRequest request = ensemble_request(617, 20, /*k=*/4, 1e-3);
    request.guard.enabled = true;
    request.guard.spread_calibrated = true;
    request.guard.spread_band_factor = 1e6;  // wide: judged but never tripped
    return request;
  };

  const core::RolloutResult first = serve_one(make_request());
  const core::RolloutResult second = serve_one(make_request());
  ASSERT_EQ(first.trajectory.size(), static_cast<std::size_t>(steps));
  EXPECT_EQ(first.guard_trips(), 0);
  expect_bitwise_equal(first, second);
  expect_spread_bitwise_equal(first, second);
}

TEST_F(EnsembleServeFixture, ZeroWidthCalibratedBandDegradesWholeGroup) {
  const index_t steps = 12;
  core::RolloutRequest request = ensemble_request(619, steps, /*k=*/2, 1e-3);
  request.guard.enabled = true;
  request.guard.spread_calibrated = true;
  request.guard.spread_band_factor = 0.0;  // band = mean ± 0: trips round 1
  request.guard.spread_floor_rel = 0.0;
  request.guard.cooldown_snapshots = 0;  // degrade for the remainder

  const std::int64_t trips_before =
      obs::counter("serve/ensemble_guard_trips").value();
  const core::RolloutResult served = serve_one(std::move(request));
  EXPECT_EQ(obs::counter("serve/ensemble_guard_trips").value(),
            trips_before + 1);
  ASSERT_EQ(served.trajectory.size(), static_cast<std::size_t>(steps));
  EXPECT_TRUE(all_finite(served));
  EXPECT_GE(served.guard_trips(), 1);
  // The whole group fell back together: the reduced trajectory is a mean of
  // PDE member rollouts, never a mix of FNO and PDE members.
  for (const std::string& producer : served.producer) {
    EXPECT_EQ(producer, "pde_fallback");
  }
}

TEST(SpreadCalibrator, JudgesAgainstPreRoundEnvelopeCommitsOnAcceptOnly) {
  core::GuardConfig config;
  config.spread_calibrated = true;  // defaults: factor 8, floor 1e-4
  core::SpreadCalibrator cal(config);

  // Snapshot 0 seeds the envelope with the members' baseline variability
  // (K = 2: anchored spread is half the member gap).
  const double e_base[] = {1.0, 1.01};
  const double z_base[] = {2.0, 2.02};
  (void)cal.calibrate(e_base, z_base, 2);
  cal.commit_round();
  EXPECT_NEAR(cal.energy_spread_envelope(), 0.005, 1e-12);

  // A member leaving consensus by 100× the calibrated spread must fall
  // outside the bands of the very round it diverges in: check-then-update
  // keeps its own spread staged, so the half-width is still 8 × 0.005. (If
  // the current spread calibrated its own band, the max member deviation —
  // bounded by spread·√(K−1) — could never exceed 8·spread and the
  // consensus guard could never trip.)
  const double e_div[] = {1.0, 2.0};  // spread 0.5
  const core::SpreadCalibrator::Bands bands =
      cal.calibrate(e_div, z_base, 2);
  EXPECT_NEAR(bands.energy_halfwidth, 8.0 * 0.005, 1e-12);
  EXPECT_GT(e_div[1], bands.energy_max);  // diverging member outside…
  EXPECT_LT(e_div[0], bands.energy_min);  // …and it dragged the mean off 0

  // Discarding the tripped round leaves the envelope untouched, so an
  // equal-magnitude divergence after cooldown still trips — a rejected
  // round must not calibrate the bands that judge the rounds after it.
  cal.discard_round();
  EXPECT_NEAR(cal.energy_spread_envelope(), 0.005, 1e-12);
  const core::SpreadCalibrator::Bands again =
      cal.calibrate(e_div, z_base, 2);
  EXPECT_EQ(again.energy_max, bands.energy_max);
  EXPECT_GT(e_div[1], again.energy_max);
  cal.discard_round();

  // Accepted rounds do widen the monotone envelope.
  const double e_wider[] = {1.0, 1.02};
  (void)cal.calibrate(e_wider, z_base, 2);
  cal.commit_round();
  EXPECT_NEAR(cal.energy_spread_envelope(), 0.01, 1e-12);
}

// Holds the flow steady: each produced snapshot repeats the latest history
// entry (advancing t) — a neutral stand-in for primary and fallback so the
// test controls member divergence purely through what it stages.
class HoldPropagator final : public core::Propagator {
 public:
  explicit HoldPropagator(std::string name) : name_(std::move(name)) {}

  std::vector<core::FieldSnapshot> advance(const core::History& history,
                                           index_t count) override {
    std::vector<core::FieldSnapshot> out;
    core::FieldSnapshot last = history.back();
    for (index_t i = 0; i < count; ++i) {
      last.t += kDtSnap;
      out.push_back(last);
    }
    return out;
  }
  [[nodiscard]] double dt_snap() const override { return kDtSnap; }
  [[nodiscard]] index_t min_history() const override { return 1; }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
};

TEST_F(EnsembleServeFixture, DivergingMemberTripsAtDefaultBandFactor) {
  // A member that genuinely leaves the ensemble consensus must trip the
  // spread-calibrated guard at the DEFAULT spread_band_factor (8), not only
  // at a hand-shrunk band — and must trip AGAIN at the same magnitude after
  // the cooldown, because the discarded round's spread never calibrates the
  // envelope. Both members run a hold-steady propagator; divergence is
  // injected by scaling member 1's staged window in rounds 2 and 3.
  const index_t steps = 16;
  core::RolloutRequest request = ensemble_request(653, steps, /*k=*/2, 1e-2);
  request.window = 4;
  request.guard.enabled = true;
  request.guard.spread_calibrated = true;  // defaults: factor 8, floor 1e-4
  request.guard.cooldown_snapshots = 4;

  HoldPropagator surrogate("surrogate");
  HoldPropagator stable("stable");
  serve::EnsembleSession session(std::move(request), &surrogate, &stable);

  const std::int64_t trips_before =
      obs::counter("serve/ensemble_guard_trips").value();
  index_t round = 0;
  while (!session.done()) {
    if (session.degraded()) {
      for (index_t m = 0; m < session.members(); ++m) {
        session.member(m).advance_fallback_window();
      }
      continue;
    }
    for (index_t m = 0; m < session.members(); ++m) {
      std::vector<core::FieldSnapshot> window = surrogate.advance(
          session.member(m).history(), session.member(m).next_window());
      if (m == 1 && (round == 1 || round == 2)) {
        // Member 1 leaves the consensus: doubled velocities quadruple its
        // energy while member 0 holds, dwarfing the seed-perturbation
        // spread the envelope was calibrated on.
        for (core::FieldSnapshot& snap : window) {
          for (index_t j = 0; j < snap.u1.size(); ++j) snap.u1[j] *= 2.0;
          for (index_t j = 0; j < snap.u2.size(); ++j) snap.u2[j] *= 2.0;
        }
      }
      session.stage_window(m, std::move(window));
    }
    session.commit_round();
    ++round;
  }

  // Rounds: 0 consistent (accepted, calibrates), 1 divergent (trip +
  // 4-snapshot cooldown), 2 divergent again (the regression: with the
  // tripped round folded into the envelope, an equal-magnitude divergence
  // could never re-trip), 3 consistent (accepted).
  const core::RolloutResult served = session.take_result();
  EXPECT_EQ(served.guard_trips(), 2);
  EXPECT_EQ(obs::counter("serve/ensemble_guard_trips").value(),
            trips_before + 2);
  ASSERT_EQ(served.trajectory.size(), static_cast<std::size_t>(steps));
  EXPECT_TRUE(all_finite(served));
  for (std::size_t s = 0; s < served.producer.size(); ++s) {
    EXPECT_EQ(served.producer[s],
              s < 4 || s >= 12 ? "surrogate" : "stable_fallback")
        << "snapshot " << s;
  }
}

TEST_F(EnsembleServeFixture, CountersSnapshotsAndBatchingAccountMembers) {
  const index_t k = 4;
  const std::int64_t sessions_before =
      obs::counter("serve/ensemble_sessions").value();
  const std::int64_t members_before =
      obs::counter("serve/ensemble_members").value();

  serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});
  const serve::Admission a =
      server.submit(ensemble_request(631, 12, k, 1e-3));
  ASSERT_TRUE(a.admitted) << a.reason;
  EXPECT_EQ(obs::counter("serve/ensemble_sessions").value(),
            sessions_before + 1);
  EXPECT_EQ(obs::counter("serve/ensemble_members").value(),
            members_before + k);

  const serve::SessionSnapshot queued = server.snapshot(a.id);
  EXPECT_EQ(queued.ensemble_members, k);
  server.drain();
  EXPECT_EQ(server.snapshot(a.id).produced, 12);
  // The K member streams co-batch through the shared engine.
  EXPECT_GT(server.mean_batch_occupancy(), 1.0);
  (void)server.take(a.id);
}

TEST_F(EnsembleServeFixture, InvalidEnsembleRequestsRejectWithReason) {
  serve::RolloutServer server(fno_prop_, &pde_prop_, serve::ServeConfig{});

  core::RolloutRequest zero_k = ensemble_request(641, 8, 1, 1e-3);
  zero_k.ensemble_k = 0;
  const serve::Admission bad_k = server.submit(std::move(zero_k));
  EXPECT_FALSE(bad_k.admitted);
  EXPECT_NE(bad_k.reason.find("ensemble_k"), std::string::npos)
      << bad_k.reason;

  core::RolloutRequest negative_eps = ensemble_request(643, 8, 2, 1e-3);
  negative_eps.ensemble_eps = -1.0;
  EXPECT_FALSE(server.submit(std::move(negative_eps)).admitted);

  // Ensembles ride the shared-primary micro-batch path; a solo-propagator
  // ensemble has no group scheduler and must be rejected, not mis-served.
  const serve::Admission solo = server.submit_with_propagator(
      ensemble_request(647, 8, 2, 1e-3), fno_prop_, &pde_prop_);
  EXPECT_FALSE(solo.admitted);
  EXPECT_NE(solo.reason.find("shared server primary"), std::string::npos)
      << solo.reason;
}

}  // namespace
}  // namespace turb
