#include <gtest/gtest.h>

#include <cmath>

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
  cfg.start_with_fno = false;
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
