#include <gtest/gtest.h>

#include "fno/fno.hpp"
#include "fno/trainer.hpp"
#include "infer/engine.hpp"
#include "nn/dataloader.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb::fno {
namespace {

FnoConfig small2d() {
  FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 6;
  cfg.n_layers = 2;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  return cfg;
}

TensorF random_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

TEST(Fno, ForwardShape2D) {
  Rng rng(1);
  Fno model(small2d(), rng);
  const TensorF y = model.forward(random_input({2, 3, 16, 16}, 2));
  EXPECT_EQ(y.shape(), (Shape{2, 2, 16, 16}));
}

TEST(Fno, ForwardShape3D) {
  Rng rng(3);
  FnoConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.width = 4;
  cfg.n_layers = 2;
  cfg.n_modes = {4, 4, 4};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  Fno model(cfg, rng);
  const TensorF y = model.forward(random_input({1, 1, 10, 8, 8}, 4));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 10, 8, 8}));
}

TEST(Fno, GradcheckInputEndToEnd) {
  Rng rng(5);
  Fno model(small2d(), rng);
  const auto res =
      nn::gradcheck_input(model, random_input({1, 3, 8, 8}, 6), 40, 2e-2f);
  EXPECT_TRUE(res.ok(3e-2)) << "max rel err " << res.max_rel_error;
}

TEST(Fno, GradcheckParametersEndToEnd) {
  Rng rng(7);
  Fno model(small2d(), rng);
  const auto res = nn::gradcheck_parameters(
      model, random_input({1, 3, 8, 8}, 8), 10, 2e-2f);
  EXPECT_TRUE(res.ok(3e-2)) << "max rel err " << res.max_rel_error;
}

TEST(Fno, GradcheckInputEndToEndPooled) {
  // Same end-to-end check with 4 pool workers and a batch wider than the
  // gradient slab count, so every per-slab scratch reduction in the chain
  // (spectral dW, linear dW/db) runs its parallel path.
  ThreadPool::Scope scope(4);
  Rng rng(5);
  Fno model(small2d(), rng);
  const auto res =
      nn::gradcheck_input(model, random_input({9, 3, 8, 8}, 6), 40, 2e-2f);
  EXPECT_TRUE(res.ok(3e-2)) << "max rel err " << res.max_rel_error;
}

TEST(Fno, GradcheckParametersEndToEndPooled) {
  ThreadPool::Scope scope(4);
  Rng rng(7);
  Fno model(small2d(), rng);
  const auto res = nn::gradcheck_parameters(
      model, random_input({9, 3, 8, 8}, 8), 10, 2e-2f);
  EXPECT_TRUE(res.ok(3e-2)) << "max rel err " << res.max_rel_error;
}

TEST(Fno, ResolutionAgnosticInference) {
  Rng rng(9);
  Fno model(small2d(), rng);
  EXPECT_EQ(model.forward(random_input({1, 3, 8, 8}, 10)).dim(2), 8);
  EXPECT_EQ(model.forward(random_input({1, 3, 32, 32}, 11)).dim(2), 32);
}

// --- Table I: exact parameter counts -----------------------------------------
//
// These twelve numbers are copied verbatim from the paper. Matching them
// exactly pins down the architecture (lifting/projection widths, single
// complex spectral weight, linear skip with bias).

struct TableRow {
  const char* label;
  index_t in_ch, out_ch, width, layers;
  index_t m1, m2, m3;  // m3 == 0 → rank-2 model
  index_t expected;
};

// Name each row by its label. gtest's default printer dumps the struct's
// bytes, label pointer included, so the discovered ctest names would change
// with every build's address layout.
void PrintTo(const TableRow& row, std::ostream* os) { *os << row.label; }

class TableIParams : public ::testing::TestWithParam<TableRow> {};

TEST_P(TableIParams, ClosedFormMatchesPaper) {
  const TableRow& row = GetParam();
  FnoConfig cfg;
  cfg.in_channels = row.in_ch;
  cfg.out_channels = row.out_ch;
  cfg.width = row.width;
  cfg.n_layers = row.layers;
  cfg.n_modes = row.m3 > 0 ? std::vector<index_t>{row.m1, row.m2, row.m3}
                           : std::vector<index_t>{row.m1, row.m2};
  EXPECT_EQ(fno_parameter_count(cfg), row.expected) << row.label;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable, TableIParams,
    ::testing::Values(
        TableRow{"2dfno_ch10_w40", 10, 10, 40, 4, 32, 32, 0, 6995922},
        TableRow{"2dfno_ch10_w8", 10, 10, 8, 4, 32, 32, 0, 288562},
        TableRow{"2dfno_ch5_w40", 10, 5, 40, 4, 32, 32, 0, 6994637},
        TableRow{"2dfno_ch5_w8", 10, 5, 8, 4, 32, 32, 0, 287277},
        TableRow{"2dfno_ch1_w40", 10, 1, 40, 4, 32, 32, 0, 6993609},
        TableRow{"2dfno_ch1_w8", 10, 1, 8, 4, 32, 32, 0, 286249},
        TableRow{"3dfno_w40_m32", 1, 1, 40, 4, 32, 32, 32, 222850505},
        TableRow{"3dfno_w40_m16", 1, 1, 40, 4, 16, 16, 16, 29519305},
        TableRow{"3dfno_w20_m24", 1, 1, 20, 4, 24, 24, 24, 23974565},
        TableRow{"3dfno_w8_m32", 1, 1, 8, 4, 32, 32, 32, 8918313},
        TableRow{"3dfno_w4_l8_m32", 1, 1, 4, 8, 32, 32, 32, 4459685},
        TableRow{"3dfno_w8_l8_m24", 1, 1, 8, 8, 24, 24, 24, 7673417}));

TEST(Fno, InstantiatedModelMatchesClosedForm) {
  Rng rng(12);
  // Small config instantiated for real; closed form must agree with the
  // actual allocated parameters.
  FnoConfig cfg = small2d();
  Fno model(cfg, rng);
  EXPECT_EQ(model.parameter_count(), fno_parameter_count(cfg));
}

TEST(Fno, InstantiatedPaperModelMatchesTableI) {
  // The width-8 2D model (288,562 parameters) is small enough to allocate.
  Rng rng(13);
  FnoConfig cfg;
  cfg.in_channels = 10;
  cfg.out_channels = 10;
  cfg.width = 8;
  cfg.n_layers = 4;
  cfg.n_modes = {32, 32};
  Fno model(cfg, rng);
  EXPECT_EQ(model.parameter_count(), 288562);
}

// --- training sanity ----------------------------------------------------------

TEST(Trainer, OverfitsTinyDataset) {
  // A small FNO must drive the relative-L2 loss well below the trivial
  // predict-zero baseline (loss 1.0) on a 4-sample problem.
  Rng rng(14);
  FnoConfig cfg = small2d();
  Fno model(cfg, rng);

  TensorF x({4, 3, 8, 8}), y({4, 2, 8, 8});
  x.fill_normal(rng, 0.0, 1.0);
  // Target: a fixed linear functional of the input (learnable by FNO).
  for (index_t n = 0; n < 4; ++n) {
    for (index_t c = 0; c < 2; ++c) {
      for (index_t i = 0; i < 64; ++i) {
        y[(n * 2 + c) * 64 + i] =
            0.5f * x[(n * 3 + c) * 64 + i] - 0.25f * x[(n * 3 + 2) * 64 + i];
      }
    }
  }
  nn::DataLoader loader(x, y, 2, true, 15);
  TrainConfig tc;
  tc.epochs = 80;
  tc.lr = 4e-3;
  tc.weight_decay = 0.0;
  const TrainResult res = train_fno(model, loader, tc);
  EXPECT_LT(res.final_train_loss(), 0.25)
      << "training failed to reduce loss";
  // Loss decreased substantially from the first epochs.
  EXPECT_LT(res.history.back().train_loss,
            0.5 * res.history.front().train_loss);
}

TEST(Trainer, EvaluateMatchesManualError) {
  Rng rng(16);
  Fno model(small2d(), rng);
  TensorF x({3, 3, 8, 8}), y({3, 2, 8, 8});
  x.fill_normal(rng, 0.0, 1.0);
  y.fill_normal(rng, 0.0, 1.0);
  const EvalResult eval = evaluate_fno(model, x, y, 2);
  const TensorF pred = model.forward(x);
  EXPECT_NEAR(eval.rel_l2, nn::relative_l2_error(pred, y), 1e-6);
  EXPECT_EQ(eval.n_samples, 3);
  EXPECT_GE(eval.seconds, 0.0);
}

// --- rollout -------------------------------------------------------------------

// Shape and determinism checks for the engine's autoregressive driver (its
// bitwise agreement with hand-stepped Fno::forward is covered by
// tests/test_infer.cpp).

TEST(Rollout, ChannelsShapeAndWindowSlide) {
  Rng rng(17);
  FnoConfig cfg = small2d();  // in 3, out 2
  Fno model(cfg, rng);
  TensorF seed({1, 3, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(seed, 7, traj);
  EXPECT_EQ(traj.shape(), (Shape{1, 7, 8, 8}));
}

TEST(Rollout, ChannelsExactMultiple) {
  Rng rng(18);
  FnoConfig cfg = small2d();
  Fno model(cfg, rng);
  TensorF seed({1, 3, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(seed, 4, traj);
  EXPECT_EQ(traj.dim(1), 4);
}

TEST(Rollout, SingleOutputChannelIterates) {
  Rng rng(19);
  FnoConfig cfg = small2d();
  cfg.out_channels = 1;
  Fno model(cfg, rng);
  TensorF seed({1, 3, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(seed, 5, traj);
  EXPECT_EQ(traj.shape(), (Shape{1, 5, 8, 8}));
}

TEST(Rollout, OutputsExceedWindow) {
  Rng rng(20);
  FnoConfig cfg = small2d();
  cfg.in_channels = 2;
  cfg.out_channels = 4;  // C_out > C_in exercises the replace branch
  Fno model(cfg, rng);
  TensorF seed({1, 2, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(seed, 9, traj);
  EXPECT_EQ(traj.dim(1), 9);
}

TEST(Rollout, ThreeDBlocks) {
  Rng rng(21);
  FnoConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.width = 4;
  cfg.n_layers = 1;
  cfg.n_modes = {4, 4, 4};
  cfg.lifting_channels = 4;
  cfg.projection_channels = 4;
  Fno model(cfg, rng);
  TensorF seed({1, 1, 6, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(seed, 3, traj);
  EXPECT_EQ(traj.shape(), (Shape{1, 3, 6, 8, 8}));
}

TEST(Rollout, DeterministicGivenSameSeed) {
  Rng rng(22);
  Fno model(small2d(), rng);
  TensorF seed({1, 3, 8, 8});
  seed.fill_normal(rng, 0.0, 1.0);
  infer::InferenceEngine engine(model);
  TensorF a, b;
  engine.rollout_into(seed, 4, a);
  engine.rollout_into(seed, 4, b);
  for (index_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace turb::fno
