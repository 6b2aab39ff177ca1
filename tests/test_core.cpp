#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/fault_injection.hpp"
#include "core/fno_propagator.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/pde_propagator.hpp"
#include "core/rollout_api.hpp"
#include "lbm/initializer.hpp"
#include "ns/spectral_ops.hpp"
#include "util/rng.hpp"

namespace turb::core {
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

FieldSnapshot make_seed_snapshot(double t, std::uint64_t seed) {
  Rng rng(seed);
  const auto field = lbm::random_vortex_velocity(kGrid, kGrid, 4.0, 1.0, rng);
  FieldSnapshot snap;
  snap.t = t;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  return snap;
}

/// Seed history of `n` snapshots produced by the PDE itself.
History make_seed_history(index_t n, std::uint64_t seed) {
  History history;
  history.push_back(make_seed_snapshot(0.0, seed));
  if (n > 1) {
    PdePropagator pde(make_solver(), kDtSnap);
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

// --- metrics -------------------------------------------------------------------

TEST(Metrics, TaylorGreenValues) {
  const auto field = lbm::taylor_green_velocity(64, 64, 1.0);
  FieldSnapshot snap;
  snap.t = 0.5;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  const SnapshotMetrics m = compute_metrics(snap);
  EXPECT_DOUBLE_EQ(m.t, 0.5);
  EXPECT_NEAR(m.kinetic_energy, 0.25, 1e-10);
  const double k = 2.0 * std::numbers::pi;
  EXPECT_NEAR(m.enstrophy, k * k, 1e-8);
  EXPECT_LT(m.divergence_linf, 1e-10);
}

TEST(Metrics, DivergenceDetectsNonSolenoidalField) {
  const index_t n = 32;
  TensorD u1({n, n}), u2({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      // Radial-ish field: strongly divergent.
      u1(iy, ix) = std::sin(2.0 * std::numbers::pi * ix / n);
      u2(iy, ix) = std::sin(2.0 * std::numbers::pi * iy / n);
    }
  }
  FieldSnapshot snap{0.0, u1, u2};
  const SnapshotMetrics m = compute_metrics(snap);
  EXPECT_GT(m.divergence_linf, 1.0);
  EXPECT_GT(m.divergence_l2, 0.5);
}

TEST(Metrics, PercentageError) {
  EXPECT_NEAR(percentage_error(1.1, 1.0), 10.0, 1e-12);
  EXPECT_NEAR(percentage_error(0.9, 1.0), 10.0, 1e-12);
  EXPECT_THROW(percentage_error(1.0, 0.0), CheckError);
}

// --- PdePropagator -------------------------------------------------------------

TEST(PdePropagator, ProducesRequestedSnapshots) {
  PdePropagator pde(make_solver(), kDtSnap);
  History history;
  history.push_back(make_seed_snapshot(0.2, 11));
  const auto traj = pde.advance(history, 5);
  ASSERT_EQ(traj.size(), 5u);
  for (std::size_t s = 0; s < traj.size(); ++s) {
    EXPECT_NEAR(traj[s].t, 0.2 + kDtSnap * static_cast<double>(s + 1), 1e-12);
    EXPECT_EQ(traj[s].u1.shape(), (Shape{kGrid, kGrid}));
  }
}

TEST(PdePropagator, OutputsAreDivergenceFree) {
  PdePropagator pde(make_solver(), kDtSnap);
  History history;
  history.push_back(make_seed_snapshot(0.0, 13));
  const auto traj = pde.advance(history, 3);
  for (const auto& snap : traj) {
    EXPECT_LT(ns::divergence(snap.u1, snap.u2).max_abs(), 1e-7);
  }
}

TEST(PdePropagator, EnergyDecays) {
  PdePropagator pde(make_solver(), kDtSnap);
  History history;
  history.push_back(make_seed_snapshot(0.0, 17));
  const auto traj = pde.advance(history, 10);
  const auto metrics = compute_metrics(traj);
  EXPECT_LT(metrics.back().kinetic_energy, metrics.front().kinetic_energy);
}

TEST(PdePropagator, RejectsNonMultipleSnapshotSpacing) {
  EXPECT_THROW(PdePropagator(make_solver(), 0.0015), CheckError);
}

TEST(PdePropagator, RejectsEmptyHistory) {
  PdePropagator pde(make_solver(), kDtSnap);
  History empty;
  EXPECT_THROW(pde.advance(empty, 1), CheckError);
}

// --- FnoPropagator -------------------------------------------------------------

TEST(FnoPropagator, ShapesTimesAndDeterminism) {
  Rng rng(19);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  EXPECT_EQ(fno_prop.min_history(), 4);

  const History history = make_seed_history(4, 23);
  const auto a = fno_prop.advance(history, 5);
  const auto b = fno_prop.advance(history, 5);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_NEAR(a[s].t, history.back().t + kDtSnap * static_cast<double>(s + 1),
                1e-12);
    for (index_t i = 0; i < a[s].u1.size(); ++i) {
      ASSERT_EQ(a[s].u1[i], b[s].u1[i]);
    }
  }
}

TEST(FnoPropagator, RejectsShortHistory) {
  Rng rng(29);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  const History history = make_seed_history(3, 31);
  EXPECT_THROW(fno_prop.advance(history, 1), CheckError);
}

TEST(FnoPropagator, Rejects3dModel) {
  Rng rng(37);
  fno::FnoConfig cfg = tiny_fno_config();
  cfg.n_modes = {4, 4, 4};
  fno::Fno model(cfg, rng);
  EXPECT_THROW(FnoPropagator(model, analysis::Normalizer(0.0, 1.0), kDtSnap),
               CheckError);
}

// --- HybridScheduler -------------------------------------------------------------

TEST(Hybrid, AlternatesProducersInConfiguredWindows) {
  Rng rng(41);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);

  HybridConfig cfg;
  cfg.fno_snapshots = 2;
  cfg.pde_snapshots = 3;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const History seed = make_seed_history(4, 43);
  const RolloutResult result = scheduler.run(seed, 12);

  ASSERT_EQ(result.trajectory.size(), 12u);
  ASSERT_EQ(result.producer.size(), 12u);
  const std::vector<std::string> expected = {"fno", "fno", "pde", "pde",
                                             "pde", "fno", "fno", "pde",
                                             "pde", "pde", "fno", "fno"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.producer[i], expected[i]) << "snapshot " << i;
  }
}

TEST(Hybrid, TimesAreUniform) {
  Rng rng(47);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 3;
  cfg.pde_snapshots = 2;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const History seed = make_seed_history(4, 53);
  const RolloutResult result = scheduler.run(seed, 10);
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    EXPECT_NEAR(result.trajectory[i].t,
                seed.back().t + kDtSnap * static_cast<double>(i + 1), 1e-9);
  }
}

TEST(Hybrid, PdeWindowRestoresDivergenceFreeFields) {
  // The central mechanism of the paper's Fig. 8: an (untrained) FNO emits
  // fields with O(1) divergence; the next PDE window projects them back.
  Rng rng(59);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 2;
  cfg.pde_snapshots = 2;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const History seed = make_seed_history(4, 61);
  const RolloutResult result = scheduler.run(seed, 8);

  double max_fno_div = 0.0, max_pde_div = 0.0;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    if (result.producer[i] == "fno") {
      max_fno_div = std::max(max_fno_div, result.metrics[i].divergence_linf);
    } else {
      max_pde_div = std::max(max_pde_div, result.metrics[i].divergence_linf);
    }
  }
  EXPECT_GT(max_fno_div, 1e-3);   // raw surrogate output is unphysical
  EXPECT_LT(max_pde_div, 1e-6);   // solver window restores incompressibility
  EXPECT_LT(max_pde_div, max_fno_div * 1e-2);
}

TEST(Hybrid, PureFnoConfiguration) {
  Rng rng(67);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 4;
  cfg.pde_snapshots = 0;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const RolloutResult result = scheduler.run(make_seed_history(4, 71), 6);
  for (const auto& p : result.producer) EXPECT_EQ(p, "fno");
}

TEST(Hybrid, PurePdeConfiguration) {
  Rng rng(73);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 0;
  cfg.pde_snapshots = 4;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const RolloutResult result = scheduler.run(make_seed_history(4, 79), 6);
  for (const auto& p : result.producer) EXPECT_EQ(p, "pde");
}

TEST(Hybrid, RunSingleMatchesPropagatorDirectly) {
  PdePropagator pde_prop(make_solver(), kDtSnap);
  History seed;
  seed.push_back(make_seed_snapshot(0.0, 83));
  RolloutRequest request;
  request.seed = seed;
  request.steps = 5;
  const RolloutResult result = run_rollout(pde_prop, request);
  ASSERT_EQ(result.trajectory.size(), 5u);
  ASSERT_EQ(result.metrics.size(), 5u);
  EXPECT_EQ(result.producer.front(), "pde");
}

TEST(Hybrid, MismatchedSnapshotSpacingRejected) {
  Rng rng(89);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), 0.02);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  EXPECT_THROW(HybridScheduler(fno_prop, pde_prop, cfg), CheckError);
}

// --- HybridScheduler vs its pre-RolloutStream loop ---------------------------

/// Reference copy of HybridScheduler::run as it stood when the scheduler kept
/// its own loop: guard scan, fallback, append and 64-snapshot history
/// truncation. The fallback after a trip is one PDE call of the whole
/// cool-down, so the stream-based scheduler must match it byte for byte
/// whenever the cool-down is no longer than the window it interrupts.
RolloutResult legacy_hybrid_run(Propagator& fno, Propagator& pde,
                                const HybridConfig& config,
                                const History& seed, index_t total) {
  const auto append = [](History& history, RolloutResult& result,
                         std::vector<FieldSnapshot>&& produced,
                         std::vector<SnapshotMetrics>&& metrics,
                         const std::string& name) {
    for (std::size_t i = 0; i < produced.size(); ++i) {
      result.metrics.push_back(metrics[i]);
      result.producer.push_back(name);
      history.push_back(produced[i]);
      result.trajectory.push_back(std::move(produced[i]));
      while (static_cast<index_t>(history.size()) > 64) history.pop_front();
    }
  };
  RolloutGuard guard(config.guard);
  History history = seed;
  RolloutResult result;
  bool fno_turn = config.fno_snapshots > 0;
  index_t produced = 0;
  while (produced < total) {
    Propagator* active = fno_turn ? &fno : &pde;
    const index_t window =
        fno_turn ? config.fno_snapshots : config.pde_snapshots;
    if (window == 0) {
      fno_turn = !fno_turn;
      continue;
    }
    const index_t count = std::min(window, total - produced);
    std::vector<FieldSnapshot> snaps = active->advance(history, count);
    std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);
    if (fno_turn && config.guard.enabled) {
      GuardTrip trip = GuardTrip::none;
      double value = 0.0;
      std::size_t bad = 0;
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        trip = guard.check(snaps[i], metrics[i], &value);
        if (trip != GuardTrip::none) {
          bad = i;
          break;
        }
      }
      if (trip != GuardTrip::none) {
        result.guard_events.push_back(
            {static_cast<index_t>(result.trajectory.size()), snaps[bad].t,
             trip, value});
        const index_t cooldown = config.guard.cooldown_snapshots > 0
                                     ? config.guard.cooldown_snapshots
                                     : config.pde_snapshots;
        const index_t fb_count = std::min(cooldown, total - produced);
        std::vector<FieldSnapshot> fb = pde.advance(history, fb_count);
        std::vector<SnapshotMetrics> fb_metrics = compute_metrics(fb);
        append(history, result, std::move(fb), std::move(fb_metrics),
               pde.name() + "_fallback");
        produced += fb_count;
        fno_turn = config.fno_snapshots > 0;
        continue;
      }
    }
    append(history, result, std::move(snaps), std::move(metrics),
           active->name());
    produced += count;
    if (config.fno_snapshots > 0 && config.pde_snapshots > 0) {
      fno_turn = !fno_turn;
    }
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_byte_equal(const RolloutResult& a, const RolloutResult& b) {
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  EXPECT_EQ(a.producer, b.producer);
  for (std::size_t k = 0; k < a.trajectory.size(); ++k) {
    ASSERT_TRUE(same_bits(a.trajectory[k].t, b.trajectory[k].t)) << k;
    ASSERT_EQ(a.trajectory[k].u1.size(), b.trajectory[k].u1.size());
    ASSERT_EQ(std::memcmp(a.trajectory[k].u1.data(), b.trajectory[k].u1.data(),
                          sizeof(double) * a.trajectory[k].u1.size()),
              0)
        << "snapshot " << k << " u1";
    ASSERT_EQ(std::memcmp(a.trajectory[k].u2.data(), b.trajectory[k].u2.data(),
                          sizeof(double) * a.trajectory[k].u2.size()),
              0)
        << "snapshot " << k << " u2";
    const SnapshotMetrics& ma = a.metrics[k];
    const SnapshotMetrics& mb = b.metrics[k];
    EXPECT_TRUE(same_bits(ma.t, mb.t) &&
                same_bits(ma.kinetic_energy, mb.kinetic_energy) &&
                same_bits(ma.enstrophy, mb.enstrophy) &&
                same_bits(ma.divergence_linf, mb.divergence_linf) &&
                same_bits(ma.divergence_l2, mb.divergence_l2))
        << "metrics of snapshot " << k;
  }
  ASSERT_EQ(a.guard_events.size(), b.guard_events.size());
  for (std::size_t e = 0; e < a.guard_events.size(); ++e) {
    const GuardEvent& ea = a.guard_events[e];
    const GuardEvent& eb = b.guard_events[e];
    EXPECT_EQ(ea.trajectory_index, eb.trajectory_index) << "event " << e;
    EXPECT_TRUE(same_bits(ea.t, eb.t)) << "event " << e;
    EXPECT_EQ(ea.reason, eb.reason) << "event " << e;
    EXPECT_TRUE(same_bits(ea.value, eb.value)) << "event " << e;
  }
}

struct LegacyCase {
  const char* name;
  index_t fno_snapshots;
  index_t pde_snapshots;
  index_t total;
  bool guarded;
  index_t cooldown;
  index_t healthy;  ///< surrogate snapshots before it turns NaN (-1: never)
};

// Name each case by its label: gtest's default printer dumps the struct's
// bytes, name pointer included, so the ctest names would change per build.
void PrintTo(const LegacyCase& c, std::ostream* os) { *os << c.name; }

class HybridLegacy : public ::testing::TestWithParam<LegacyCase> {};

TEST_P(HybridLegacy, StreamSchedulerMatchesLegacyLoopByteForByte) {
  const LegacyCase& c = GetParam();
  Rng rng(101);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = c.fno_snapshots;
  cfg.pde_snapshots = c.pde_snapshots;
  cfg.guard.enabled = c.guarded;  // infinite default bands: NaN trips only
  cfg.guard.cooldown_snapshots = c.cooldown;
  const History seed = make_seed_history(4, 103);

  // The NaN surrogate counts what it produced: one fresh instance per run.
  const auto run = [&](bool legacy) {
    DivergentPropagator divergent(fno_prop, c.healthy,
                                  DivergentPropagator::Mode::nan);
    Propagator& fno = c.healthy >= 0 ? static_cast<Propagator&>(divergent)
                                     : static_cast<Propagator&>(fno_prop);
    if (legacy) return legacy_hybrid_run(fno, pde_prop, cfg, seed, c.total);
    HybridScheduler scheduler(fno, pde_prop, cfg);
    return scheduler.run(seed, c.total);
  };
  const RolloutResult legacy = run(true);
  const RolloutResult stream = run(false);
  ASSERT_EQ(stream.trajectory.size(), static_cast<std::size_t>(c.total));
  EXPECT_EQ(stream.guard_trips() > 0, c.healthy >= 0);
  expect_byte_equal(legacy, stream);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HybridLegacy,
    ::testing::Values(
        LegacyCase{"alternate_2_3", 2, 3, 15, false, 0, -1},
        LegacyCase{"alternate_3_2", 3, 2, 15, false, 0, -1},
        LegacyCase{"alternate_5_5", 5, 5, 20, false, 0, -1},
        LegacyCase{"pure_fno", 4, 0, 9, false, 0, -1},
        LegacyCase{"pure_pde", 0, 4, 9, false, 0, -1},
        LegacyCase{"ragged_horizon", 3, 2, 12, false, 0, -1},
        LegacyCase{"guarded_untripped", 3, 2, 15, true, 0, -1},
        LegacyCase{"trip_cooldown_zero", 2, 3, 14, true, 0, 3},
        LegacyCase{"trip_short_cooldown", 5, 5, 25, true, 3, 7}));

/// Records the length of every advance() call of the wrapped propagator.
class CountingPropagator final : public Propagator {
 public:
  explicit CountingPropagator(Propagator& inner) : inner_(&inner) {}
  std::vector<FieldSnapshot> advance(const History& history,
                                     index_t count) override {
    calls.push_back(count);
    return inner_->advance(history, count);
  }
  [[nodiscard]] double dt_snap() const override { return inner_->dt_snap(); }
  [[nodiscard]] index_t min_history() const override {
    return inner_->min_history();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::vector<index_t> calls;

 private:
  Propagator* inner_;
};

TEST(Hybrid, CooldownLongerThanItsWindowRunsInBoundedFallbackWindows) {
  // 2/3 alternation, cool-down 7: after the trip the PDE runs fallback
  // windows of at most max(2, 3) = 3 snapshots (3, 3, 1), not one 7-snapshot
  // call, and the FNO gets its turn back after the last one.
  PdePropagator inner(make_solver(), kDtSnap);
  DivergentPropagator divergent(inner, /*healthy_snapshots=*/3,
                                DivergentPropagator::Mode::nan);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  CountingPropagator pde(pde_prop);
  HybridConfig cfg;
  cfg.fno_snapshots = 2;
  cfg.pde_snapshots = 3;
  cfg.guard.enabled = true;
  cfg.guard.cooldown_snapshots = 7;
  HybridScheduler scheduler(divergent, pde, cfg);
  const RolloutResult result = scheduler.run(make_seed_history(1, 107), 14);

  // FNO [0,2), scheduled PDE [2,5), FNO tripped (discarded), cool-down
  // [5,12), FNO tripped again, second cool-down [12,14).
  EXPECT_EQ(pde.calls, (std::vector<index_t>{3, 3, 3, 1, 2}));
  std::vector<std::string> expected(14, "pde_fallback");
  expected[0] = expected[1] = "divergent";
  expected[2] = expected[3] = expected[4] = "pde";
  EXPECT_EQ(result.producer, expected);
  ASSERT_EQ(result.guard_trips(), 2);
  EXPECT_EQ(result.guard_events[0].trajectory_index, 5);
  EXPECT_EQ(result.guard_events[1].trajectory_index, 12);
  EXPECT_EQ(divergent.produced(), 6);  // 2 kept + two discarded windows
}

TEST(Hybrid, BothWindowsZeroRejected) {
  Rng rng(97);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 0;
  cfg.pde_snapshots = 0;
  EXPECT_THROW(HybridScheduler(fno_prop, pde_prop, cfg), CheckError);
}

}  // namespace
}  // namespace turb::core
