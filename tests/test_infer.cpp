// Inference engine contract tests.
//
// 1. Bitwise equality: the planned engine must reproduce Fno::forward
//    exactly — same bytes — at pool widths 1/2/4, with lane batching on and
//    off, under the scalar and (where the CPU has it) avx2 kernels, across
//    2D / 3D configs, power-of-two and Bluestein grids, and batch > 1; one
//    engine forward advances the fft/* line counters exactly as much as one
//    Fno::forward. Rollouts and the FnoPropagator must match in-test
//    replicas of the pre-engine algorithms stepped through model.forward().
// 2. Zero allocation: a global operator-new counting hook asserts the
//    engine's steady state (forward, rollout step, hybrid advance window)
//    and the spectral PDE step perform zero heap allocations after one
//    warm-up call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.hpp"
#include "core/fno_propagator.hpp"
#include "fft/plan.hpp"
#include "fno/fno.hpp"
#include "infer/arena.hpp"
#include "infer/engine.hpp"
#include "nn/spectral_conv.hpp"
#include "ns/solver.hpp"
#include "obs/obs.hpp"
#include "tensor/gemm.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// --- Global operator-new counting hook --------------------------------------
// Replaces every allocation form for this test binary. Counting is gated by
// g_track so only the measured windows pay attention; the hooks themselves
// must not allocate.

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::int64_t> g_allocs{0};

inline void note_alloc() noexcept {
  if (g_track.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void* plain_alloc(std::size_t n) {
  note_alloc();
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* aligned_alloc_impl(std::size_t n, std::size_t align) {
  note_alloc();
  const std::size_t size = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, size ? size : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return plain_alloc(n); }
void* operator new[](std::size_t n) { return plain_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return aligned_alloc_impl(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return aligned_alloc_impl(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
// glibc free() accepts pointers from malloc and aligned_alloc alike.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace turb {
namespace {

fno::FnoConfig small2d() {
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  return cfg;
}

fno::FnoConfig wide2d() {
  fno::FnoConfig cfg = small2d();
  cfg.in_channels = 2;
  cfg.out_channels = 4;  // C_out > C_in exercises the suffix-window slide
  return cfg;
}

fno::FnoConfig cfg3d() {
  fno::FnoConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.width = 6;
  cfg.n_layers = 2;
  cfg.n_modes = {4, 4, 4};
  cfg.lifting_channels = 12;
  cfg.projection_channels = 12;
  return cfg;
}

TensorF random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

void expect_bitwise_equal(const TensorF& a, const TensorF& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.size()) * sizeof(float)))
      << what << ": payload differs";
}

// --- Pre-engine reference implementations (the exact old algorithms) --------

TensorF ref_channel_rollout(fno::Fno& model, const TensorF& history,
                            index_t steps) {
  const fno::FnoConfig& cfg = model.config();
  const index_t h = history.dim(1), w = history.dim(2);
  const index_t frame = h * w;
  const index_t cin = cfg.in_channels, cout = cfg.out_channels;
  TensorF out({steps, h, w});
  TensorF window({1, cin, h, w});
  std::copy_n(history.data(), cin * frame, window.data());
  index_t produced = 0;
  while (produced < steps) {
    const TensorF pred = model.forward(window);
    const index_t take = std::min(cout, steps - produced);
    std::copy_n(pred.data(), take * frame, out.data() + produced * frame);
    produced += take;
    if (cout >= cin) {
      std::copy_n(pred.data() + (cout - cin) * frame, cin * frame,
                  window.data());
    } else {
      std::copy(window.data() + cout * frame, window.data() + cin * frame,
                window.data());
      std::copy_n(pred.data(), cout * frame,
                  window.data() + (cin - cout) * frame);
    }
  }
  return out;
}

TensorF ref_block_rollout(fno::Fno& model, const TensorF& seed, index_t blocks) {
  const index_t t = seed.dim(0), h = seed.dim(1), w = seed.dim(2);
  const index_t block_elems = t * h * w;
  TensorF out({blocks * t, h, w});
  TensorF window({1, 1, t, h, w});
  std::copy_n(seed.data(), block_elems, window.data());
  for (index_t b = 0; b < blocks; ++b) {
    const TensorF pred = model.forward(window);
    std::copy_n(pred.data(), block_elems, out.data() + b * block_elems);
    std::copy_n(pred.data(), block_elems, window.data());
  }
  return out;
}

std::vector<core::FieldSnapshot> ref_advance(
    fno::Fno& model, const analysis::Normalizer& normalizer, double dt_snap,
    const core::History& history, index_t count) {
  const index_t cin = model.config().in_channels;
  const index_t cout = model.config().out_channels;
  const TensorD& ref = history.back().u1;
  const index_t h = ref.dim(0), w = ref.dim(1);
  const index_t frame = h * w;
  TensorF window({2, cin, h, w});
  const auto first = history.size() - static_cast<std::size_t>(cin);
  for (index_t c = 0; c < cin; ++c) {
    const core::FieldSnapshot& snap =
        history[first + static_cast<std::size_t>(c)];
    for (index_t i = 0; i < frame; ++i) {
      window[(0 * cin + c) * frame + i] = static_cast<float>(snap.u1[i]);
      window[(1 * cin + c) * frame + i] = static_cast<float>(snap.u2[i]);
    }
  }
  normalizer.apply(window);
  std::vector<core::FieldSnapshot> out;
  const double t0 = history.back().t;
  index_t produced = 0;
  while (produced < count) {
    TensorF pred = model.forward(window);
    TensorF next({2, cin, h, w});
    if (cout >= cin) {
      for (index_t b = 0; b < 2; ++b) {
        std::copy_n(pred.data() + (b * cout + (cout - cin)) * frame,
                    cin * frame, next.data() + b * cin * frame);
      }
    } else {
      for (index_t b = 0; b < 2; ++b) {
        std::copy_n(window.data() + (b * cin + cout) * frame,
                    (cin - cout) * frame, next.data() + b * cin * frame);
        std::copy_n(pred.data() + b * cout * frame, cout * frame,
                    next.data() + (b * cin + (cin - cout)) * frame);
      }
    }
    window = std::move(next);
    normalizer.invert(pred);
    const index_t take = std::min(cout, count - produced);
    for (index_t s = 0; s < take; ++s) {
      core::FieldSnapshot snap;
      snap.t = t0 + dt_snap * static_cast<double>(produced + s + 1);
      snap.u1 = TensorD({h, w});
      snap.u2 = TensorD({h, w});
      for (index_t i = 0; i < frame; ++i) {
        snap.u1[i] = pred[(0 * cout + s) * frame + i];
        snap.u2[i] = pred[(1 * cout + s) * frame + i];
      }
      out.push_back(std::move(snap));
    }
    produced += take;
  }
  return out;
}

core::History make_history(index_t frames, index_t h, index_t w,
                           std::uint64_t seed) {
  Rng rng(seed);
  core::History history;
  for (index_t f = 0; f < frames; ++f) {
    core::FieldSnapshot snap;
    snap.t = 0.1 * static_cast<double>(f + 1);
    snap.u1 = TensorD({h, w});
    snap.u2 = TensorD({h, w});
    snap.u1.fill_normal(rng, 0.0, 1.0);
    snap.u2.fill_normal(rng, 0.0, 1.0);
    history.push_back(std::move(snap));
  }
  return history;
}

// --- Arena ------------------------------------------------------------------

TEST(Arena, SlicesAreAlignedAndZeroFilled) {
  infer::Arena arena;
  arena.begin_layout();
  const std::size_t a = arena.reserve<float>(3);  // 12 bytes, next slice snaps
  const std::size_t b = arena.reserve<double>(5);
  arena.commit();
  EXPECT_EQ(a % infer::Arena::kAlign, 0u);
  EXPECT_EQ(b % infer::Arena::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.at<float>(a)) %
                infer::Arena::kAlign,
            0u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(arena.at<float>(a)[i], 0.0f);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(arena.at<double>(b)[i], 0.0);
}

TEST(Arena, GrowOnlyReuse) {
  infer::Arena arena;
  arena.begin_layout();
  (void)arena.reserve<float>(1024);
  arena.commit();
  const std::size_t cap = arena.capacity();
  arena.begin_layout();
  (void)arena.reserve<float>(256);  // smaller layout reuses storage
  arena.commit();
  EXPECT_EQ(arena.capacity(), cap);
  arena.begin_layout();
  (void)arena.reserve<float>(4096);  // larger layout grows
  arena.commit();
  EXPECT_GT(arena.capacity(), cap);
}

// --- Bitwise forward equality ----------------------------------------------

/// The fft/* line counters a forward pass advances.
constexpr const char* kFftLineCounters[] = {
    "fft/lines_total",     "fft/pruned_lines_skipped", "fft/r2c_lines",
    "fft/c2r_lines",       "fft/batched_lines",        "fft/batch_tail_lines",
    "fft/column_lines"};

std::vector<std::int64_t> fft_line_counts() {
  std::vector<std::int64_t> counts;
  for (const char* name : kFftLineCounters) {
    counts.push_back(obs::counter(name).value());
  }
  return counts;
}

/// The ISAs this host runs: scalar, plus avx2 where the CPU has it.
std::vector<util::Isa> runnable_isas() {
  std::vector<util::Isa> isas{util::Isa::kScalar};
  if (util::cpu_supports_avx2()) isas.push_back(util::Isa::kAvx2);
  return isas;
}

void check_forward_equal(const fno::FnoConfig& cfg, const Shape& in_shape,
                         std::uint64_t seed) {
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      SCOPED_TRACE(std::string(util::isa_name(isa)) + " threads=" +
                   std::to_string(threads));
      ThreadPool::Scope scope(threads);
      Rng rng(seed);
      fno::Fno model(cfg, rng);
      const TensorF x = random_tensor(in_shape, seed + 1);
      TensorF batched_ref;
      // Batching off runs the line drivers' per-line reference arm in both
      // paths; the bytes must not change with it.
      for (const bool batching : {true, false}) {
        fft::ScopedLineBatching lanes(batching);
        const std::vector<std::int64_t> c0 = fft_line_counts();
        TensorF ref = model.forward(x);
        const std::vector<std::int64_t> c1 = fft_line_counts();
        infer::InferenceEngine engine(model);
        engine.plan(in_shape);
        TensorF y;
        engine.forward(x, y);
        const std::vector<std::int64_t> c2 = fft_line_counts();
        expect_bitwise_equal(ref, y, "engine vs Fno::forward");
        for (std::size_t i = 0; i < c0.size(); ++i) {
          EXPECT_EQ(c2[i] - c1[i], c1[i] - c0[i])
              << kFftLineCounters[i] << ": engine vs Fno::forward, batching="
              << batching;
        }
        // Second call through the planned steady state must agree too.
        engine.forward(x, y);
        expect_bitwise_equal(ref, y, "engine steady-state repeat");
        if (batching) {
          batched_ref = std::move(ref);
        } else {
          expect_bitwise_equal(batched_ref, y, "per-line vs batched engine");
        }
      }
    }
  }
}

TEST(InferEngine, BitwiseForward2dPow2) {
  check_forward_equal(small2d(), {1, 3, 16, 16}, 11);
}

TEST(InferEngine, BitwiseForward2dBatched) {
  check_forward_equal(small2d(), {3, 3, 16, 16}, 12);
}

TEST(InferEngine, BitwiseForward2dBluestein) {
  // 10×14 grid: Bluestein c2c axis and a spatial size (140) that is not a
  // multiple of the GEMM panel width, exercising block tails.
  fno::FnoConfig cfg = small2d();
  cfg.n_modes = {4, 4};
  check_forward_equal(cfg, {2, 3, 10, 14}, 13);
}

TEST(InferEngine, BitwiseForward3d) {
  check_forward_equal(cfg3d(), {1, 1, 10, 8, 8}, 14);
}

TEST(InferEngine, BitwiseForward3dBatched) {
  check_forward_equal(cfg3d(), {2, 1, 10, 8, 8}, 15);
}

TEST(InferEngine, RefreshWeightsTracksModel) {
  Rng rng(21);
  fno::Fno model(small2d(), rng);
  infer::InferenceEngine engine(model);
  // Perturb a weight after engine construction: the engine serves the old
  // snapshot until refresh_weights().
  model.lift1().weight().value[0] += 1.0f;
  const TensorF x = random_tensor({1, 3, 16, 16}, 22);
  TensorF ref = model.forward(x);
  TensorF y;
  engine.forward(x, y);
  EXPECT_NE(0, std::memcmp(ref.data(), y.data(),
                           static_cast<std::size_t>(ref.size()) *
                               sizeof(float)));
  engine.refresh_weights();
  engine.forward(x, y);
  expect_bitwise_equal(ref, y, "after refresh_weights");
}

TEST(InferEngine, GeluDispatchesOncePerTile) {
  // A 16×16 batch-1 forward has 4 column blocks of 64: 4 lift, 4 project
  // and 4 skip tiles per non-last block, one GELU dispatch each.
  Rng rng(23);
  const fno::FnoConfig cfg = small2d();
  fno::Fno model(cfg, rng);
  infer::InferenceEngine engine(model);
  const TensorF x = random_tensor({1, 3, 16, 16}, 24);
  TensorF y;
  engine.forward(x, y);
  const util::Isa isa = util::active_isa();
  const std::int64_t before = util::gelu_dispatch_counter(isa).value();
  engine.forward(x, y);
  EXPECT_EQ(util::gelu_dispatch_counter(isa).value() - before,
            4 + 4 + 4 * (cfg.n_layers - 1));
}

// --- Rollout equality -------------------------------------------------------

// One-trajectory engine rollout in the reference replicas' layout: the
// history (C_in, H, W) — or a 3-D seed block (T, H, W) — is rolled out as a
// batch-1 model input, and the (1, steps, spatial...) result is returned as
// (frames, H, W).
TensorF engine_rollout(infer::InferenceEngine& engine, const TensorF& history,
                       index_t steps) {
  Shape in = history.shape();
  while (in.size() < engine.config().rank() + 2) in.insert(in.begin(), 1);
  TensorF seed = history;
  seed.reshape(in);
  TensorF out;
  engine.rollout_into(seed, steps, out);
  const index_t h = history.dim(history.rank() - 2);
  const index_t w = history.dim(history.rank() - 1);
  out.reshape({out.size() / (h * w), h, w});
  return out;
}

TEST(InferEngine, RolloutChannelsMatchesReference) {
  for (const bool wide : {false, true}) {
    const fno::FnoConfig cfg = wide ? wide2d() : small2d();
    Rng rng(31);
    fno::Fno model(cfg, rng);
    const TensorF history =
        random_tensor({cfg.in_channels, 16, 16}, 32);
    const TensorF ref = ref_channel_rollout(model, history, 7);
    infer::InferenceEngine engine(model);
    const TensorF got = engine_rollout(engine, history, 7);
    expect_bitwise_equal(ref, got, wide ? "rollout wide" : "rollout narrow");
  }
}

TEST(InferEngine, RolloutChannelsThreadInvariant) {
  Rng rng(33);
  fno::Fno model(small2d(), rng);
  const TensorF history = random_tensor({3, 16, 16}, 34);
  TensorF base;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    ThreadPool::Scope scope(threads);
    infer::InferenceEngine engine(model);
    const TensorF got = engine_rollout(engine, history, 5);
    if (base.empty()) {
      base = got;
    } else {
      expect_bitwise_equal(base, got, "rollout across widths");
    }
  }
}

TEST(InferEngine, Rollout3dMatchesReference) {
  Rng rng(41);
  fno::Fno model(cfg3d(), rng);
  const TensorF seed = random_tensor({10, 8, 8}, 42);
  const TensorF ref = ref_block_rollout(model, seed, 3);
  infer::InferenceEngine engine(model);
  const TensorF got = engine_rollout(engine, seed, 3);
  expect_bitwise_equal(ref, got, "3-D block rollout");
}

TEST(InferEngine, BatchedRolloutMatchesSingle) {
  Rng rng(51);
  fno::Fno model(small2d(), rng);
  infer::InferenceEngine engine(model);
  const index_t trajectories = 3;
  const TensorF histories = random_tensor({trajectories, 3, 16, 16}, 52);
  TensorF batched;
  engine.rollout_into(histories, 6, batched);
  ASSERT_EQ(batched.shape(), (Shape{trajectories, 6, 16, 16}));
  const index_t frame = 16 * 16;
  infer::InferenceEngine solo(model);
  for (index_t b = 0; b < trajectories; ++b) {
    TensorF hist({3, 16, 16});
    std::copy_n(histories.data() + b * 3 * frame, 3 * frame, hist.data());
    const TensorF single = engine_rollout(solo, hist, 6);
    ASSERT_EQ(0, std::memcmp(single.data(), batched.data() + b * 6 * frame,
                             static_cast<std::size_t>(6 * frame) *
                                 sizeof(float)))
        << "trajectory " << b;
  }
}

// --- FnoPropagator ----------------------------------------------------------

TEST(InferEngine, PropagatorMatchesReference) {
  for (const bool wide : {false, true}) {
    const fno::FnoConfig cfg = wide ? wide2d() : small2d();
    Rng rng(61);
    fno::Fno model(cfg, rng);
    const analysis::Normalizer norm(0.25, 1.75);
    const core::History history = make_history(cfg.in_channels + 1, 16, 16,
                                               62);
    const auto ref = ref_advance(model, norm, 0.5, history, 5);
    core::FnoPropagator prop(model, norm, 0.5);
    const auto got = prop.advance(history, 5);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].t, got[i].t);
      ASSERT_EQ(0, std::memcmp(ref[i].u1.data(), got[i].u1.data(),
                               static_cast<std::size_t>(ref[i].u1.size()) *
                                   sizeof(double)))
          << "u1 snapshot " << i << (wide ? " wide" : " narrow");
      ASSERT_EQ(0, std::memcmp(ref[i].u2.data(), got[i].u2.data(),
                               static_cast<std::size_t>(ref[i].u2.size()) *
                                   sizeof(double)))
          << "u2 snapshot " << i << (wide ? " wide" : " narrow");
    }
  }
}

// --- Counter semantics ------------------------------------------------------

TEST(InferEngine, SteadyStateAllocCounterSemantics) {
  obs::Counter& steady = obs::counter("infer/steady_state_allocs");
  Rng rng(71);
  fno::Fno model(small2d(), rng);
  infer::InferenceEngine engine(model);
  const std::int64_t before = steady.value();
  engine.plan({1, 3, 16, 16});
  engine.plan({1, 3, 16, 16});  // idempotent
  engine.plan({2, 3, 16, 16});  // explicit replans never count
  EXPECT_EQ(steady.value(), before);
  const TensorF x1 = random_tensor({1, 3, 16, 16}, 72);
  TensorF y;
  engine.forward(x1, y);  // implicit replan (shape differs from last plan)
  EXPECT_EQ(steady.value(), before + 1);
  engine.forward(x1, y);  // planned shape — steady state
  EXPECT_EQ(steady.value(), before + 1);
}

// --- Zero-allocation steady state -------------------------------------------

std::int64_t count_allocs(const std::function<void()>& body) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_track.store(true, std::memory_order_relaxed);
  body();
  g_track.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(InferZeroAlloc, ForwardSteadyState) {
  ThreadPool::Scope scope(1);
  Rng rng(81);
  fno::Fno model(small2d(), rng);
  infer::InferenceEngine engine(model);
  engine.plan({1, 3, 16, 16});
  const TensorF x = random_tensor({1, 3, 16, 16}, 82);
  TensorF y;
  for (const util::Isa isa : runnable_isas()) {
    util::ScopedIsa forced(isa);
    engine.forward(x, y);  // warm-up: FFT plans, obs statics, y storage
    for (const bool batching : {true, false}) {
      fft::ScopedLineBatching lanes(batching);
      const std::int64_t n = count_allocs([&] { engine.forward(x, y); });
      EXPECT_EQ(n, 0) << util::isa_name(isa)
                      << " forward steady state allocated, line batching "
                      << (batching ? "on" : "off");
    }
  }
}

TEST(InferZeroAlloc, ForwardBluesteinSteadyState) {
  ThreadPool::Scope scope(1);
  fno::FnoConfig cfg = small2d();
  cfg.n_modes = {4, 4};
  Rng rng(83);
  fno::Fno model(cfg, rng);
  infer::InferenceEngine engine(model);
  engine.plan({1, 3, 10, 14});
  const TensorF x = random_tensor({1, 3, 10, 14}, 84);
  TensorF y;
  engine.forward(x, y);
  const std::int64_t n = count_allocs([&] { engine.forward(x, y); });
  EXPECT_EQ(n, 0) << "Bluestein forward steady state allocated";
}

TEST(InferZeroAlloc, RolloutSteadyState) {
  ThreadPool::Scope scope(1);
  Rng rng(85);
  fno::Fno model(small2d(), rng);
  infer::InferenceEngine engine(model);
  const TensorF seed = random_tensor({1, 3, 16, 16}, 86);
  TensorF out;
  engine.rollout_into(seed, 6, out);  // warm-up
  const std::int64_t n =
      count_allocs([&] { engine.rollout_into(seed, 6, out); });
  EXPECT_EQ(n, 0) << "rollout steady state allocated";
}

TEST(InferZeroAlloc, PropagatorAdvanceWindow) {
  ThreadPool::Scope scope(1);
  Rng rng(87);
  fno::Fno model(small2d(), rng);
  const analysis::Normalizer norm(0.1, 2.0);
  core::FnoPropagator prop(model, norm, 0.5);
  const core::History history = make_history(4, 16, 16, 88);
  std::vector<core::FieldSnapshot> out;
  prop.advance_into(history, 4, out);  // warm-up: snapshots allocate once
  const std::int64_t n =
      count_allocs([&] { prop.advance_into(history, 4, out); });
  EXPECT_EQ(n, 0) << "hybrid advance window allocated";
}

TEST(PoolZeroAlloc, DispatchAllocatesNothing) {
  // Every dispatch passes its body by address through run_chunks, so after
  // a warm-up call (obs statics) none touches the heap, at widths 1 and 4,
  // however much its body captures.
  constexpr index_t dim = 64;
  std::vector<float> a(dim * dim, 0.5f), b(dim * dim, 0.25f), c(dim * dim);
  std::vector<double> out(256);
  const double scale = 2.0;
  std::atomic<index_t> seen{0};
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    const auto expect_none = [&](const char* what, const auto& dispatch) {
      dispatch();  // warm-up
      const std::int64_t n = count_allocs([&] {
        for (int call = 0; call < 100; ++call) dispatch();
      });
      EXPECT_EQ(n, 0) << what << " allocated " << n
                      << " times in 100 calls at width " << width;
    };
    expect_none("parallel_for", [&] {
      parallel_for(0, 256, [&out, &scale, &seen](index_t i) {
        out[static_cast<std::size_t>(i)] = scale * static_cast<double>(i);
        seen.fetch_add(1, std::memory_order_relaxed);
      });
    });
    expect_none("parallel_for_chunked", [&] {
      parallel_for_chunked(0, 256, [&out, &scale, &seen](index_t lo,
                                                         index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          out[static_cast<std::size_t>(i)] += scale;
        }
        seen.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    });
    expect_none("parallel_for_slabs", [&] {
      parallel_for_slabs(0, 256, 8, [&](index_t slab, index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          out[static_cast<std::size_t>(i)] = static_cast<double>(slab);
        }
      });
    });
    expect_none("64^3 gemm_nn", [&] {
      gemm_nn<float>(dim, dim, dim, 1.0f, a.data(), dim, b.data(), dim, 0.0f,
                     c.data(), dim);
    });
  }
  // Two entries count their indices, 101 calls each, at two widths.
  EXPECT_EQ(seen.load(), 2 * 2 * 101 * 256);
}

TEST(NsZeroAlloc, SpectralStepSteadyState) {
  // The planned RK4 step: after one warm-up step on the stepping pool (line
  // scratch for its slots, FFT plans, obs statics) no step allocates, under
  // either ISA and line batching mode, at widths 1 and 4.
  ns::NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.forcing_amplitude = 0.5;
  cfg.forcing_k = 4;
  Rng rng(89);
  TensorD omega({cfg.n, cfg.n});
  omega.fill_normal(rng, 0.0, 1.0);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    ns::SpectralNsSolver solver(cfg);
    solver.set_vorticity(omega);
    for (const util::Isa isa : runnable_isas()) {
      util::ScopedIsa forced(isa);
      solver.step(1);  // warm-up
      for (const bool batching : {true, false}) {
        fft::ScopedLineBatching lanes(batching);
        const std::int64_t n = count_allocs([&] { solver.step(10); });
        EXPECT_EQ(n, 0) << util::isa_name(isa) << " width " << width
                        << " spectral step allocated, line batching "
                        << (batching ? "on" : "off");
      }
    }
  }
}

}  // namespace
}  // namespace turb
