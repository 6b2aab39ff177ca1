// Quickstart: the whole pipeline in ~80 lines.
//
//   1. generate a small ensemble of 2-D decaying turbulence with the
//      entropic lattice Boltzmann solver,
//   2. cut it into (10-in, 5-out) temporal-channel windows,
//   3. train a small 2D FNO on the velocity fields,
//   4. evaluate the one-shot error and an iterative rollout.
//
// Run:  ./quickstart [--samples 4] [--grid 32] [--epochs 20]
#include <cstdio>

#include "core/turbfno.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace turb;
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);
  const index_t n_samples = args.get_int("samples", 4);
  const index_t grid = args.get_int("grid", 32);
  const index_t epochs = args.get_int("epochs", 20);

  // 1. Data: ensemble of decaying-turbulence trajectories.
  data::GeneratorConfig gen;
  gen.grid = grid;
  gen.reynolds = 1000.0;
  gen.dt_tc = 0.02;
  gen.t_end_tc = 0.5;
  std::printf("generating %lld trajectories on a %lldx%lld grid...\n",
              static_cast<long long>(n_samples), static_cast<long long>(grid),
              static_cast<long long>(grid));
  Timer timer;
  const data::TurbulenceDataset dataset =
      data::generate_ensemble(gen, n_samples);
  std::printf("  done in %.1fs (%lld snapshots/trajectory)\n", timer.seconds(),
              static_cast<long long>(dataset.samples.front().steps()));

  // 2. Windows: 10 input snapshots -> 5 output snapshots, both components.
  data::WindowSpec spec;
  spec.in_channels = 10;
  spec.out_channels = 5;
  TensorF inputs, targets;
  data::make_velocity_channel_windows(dataset, spec, inputs, targets);
  const analysis::Normalizer norm = analysis::Normalizer::fit(inputs);
  norm.apply(inputs);
  norm.apply(targets);
  std::printf("window tensor: %lld pairs of (10 -> 5) snapshots\n",
              static_cast<long long>(inputs.dim(0)));

  // 3. Train a small FNO.
  fno::FnoConfig cfg;
  cfg.in_channels = 10;
  cfg.out_channels = 5;
  cfg.width = 12;
  cfg.n_layers = 4;
  cfg.n_modes = {12, 12};
  cfg.lifting_channels = 32;
  cfg.projection_channels = 32;
  Rng rng(7);
  fno::Fno model(cfg, rng);
  std::printf("model: width %lld, %lld layers, %lld parameters\n",
              static_cast<long long>(cfg.width),
              static_cast<long long>(cfg.n_layers),
              static_cast<long long>(model.parameter_count()));

  nn::DataLoader loader(inputs, targets, 8, /*shuffle=*/true, 11);
  fno::TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = 2e-3;
  tc.verbose = true;
  timer.reset();
  const fno::TrainResult train = fno::train_fno(model, loader, tc);
  std::printf("training: %.1fs, final relative-L2 loss %.4f\n",
              train.total_seconds, train.final_train_loss());

  // 4. Evaluate one-shot error and a 15-step rollout on a held-out sample.
  const data::SnapshotSeries fresh = data::generate_sample(gen, 1000);
  const index_t frame = grid * grid;
  TensorF history({1, 10, grid, grid});
  std::copy_n(fresh.u1.data(), 10 * frame, history.data());
  norm.apply(history);
  infer::InferenceEngine engine(model);
  TensorF traj;
  engine.rollout_into(history, 15, traj);
  for (const index_t step : {index_t{1}, index_t{5}, index_t{15}}) {
    TensorD pred({grid, grid}), truth({grid, grid});
    for (index_t i = 0; i < frame; ++i) {
      pred[i] = traj[(step - 1) * frame + i] * norm.stddev() + norm.mean();
      truth[i] = fresh.u1[(10 + step - 1) * frame + i];
    }
    std::printf("rollout step %2lld: relative-L2 error %.4f\n",
                static_cast<long long>(step),
                analysis::relative_l2_difference(pred, truth));
  }
  std::printf("quickstart complete.\n");
  return 0;
}
