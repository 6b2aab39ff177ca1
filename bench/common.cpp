#include "common.hpp"

#include <algorithm>
#include <cstdio>

#include "util/cli.hpp"

namespace turb::bench {

namespace {
std::string g_json_out;
}  // namespace

void init(int argc, const char* const* argv) {
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);
  g_json_out = args.get("json-out", "");
}

const std::string& json_out_path() { return g_json_out; }

ScaleParams scale_params() {
  ScaleParams p;
  switch (bench_scale()) {
    case BenchScale::kCi:
      break;  // defaults
    case BenchScale::kFull:
      p.grid = 64;
      p.ensemble = 16;
      p.heldout = 4;
      p.reynolds = 2000;
      p.dt_tc = 0.005;
      p.t_end_tc = 1.0;
      p.epochs = 60;
      p.width_small = 8;
      p.width_large = 24;
      p.modes = 16;
      break;
    case BenchScale::kPaper:
      p.grid = 256;
      p.ensemble = 1000;
      p.heldout = 500;
      p.reynolds = 7500;
      p.dt_tc = 0.005;
      p.t_end_tc = 1.0;
      p.epochs = 500;
      p.batch = 16;
      p.width_small = 8;
      p.width_large = 40;
      p.modes = 32;
      break;
  }
  return p;
}

namespace {

data::GeneratorConfig generator_config(std::uint64_t seed) {
  const ScaleParams p = scale_params();
  data::GeneratorConfig gen;
  gen.grid = p.grid;
  gen.u0 = 0.05;
  gen.reynolds = p.reynolds;
  gen.dt_tc = p.dt_tc;
  gen.t_end_tc = p.t_end_tc;
  gen.burn_in_tc = 0.25;
  gen.seed = seed;
  return gen;
}

}  // namespace

const data::TurbulenceDataset& shared_dataset() {
  static const data::TurbulenceDataset dataset = [] {
    const ScaleParams p = scale_params();
    std::printf("# generating shared training ensemble (%lld x %lld^2)...\n",
                static_cast<long long>(p.ensemble),
                static_cast<long long>(p.grid));
    return data::generate_ensemble(generator_config(1001), p.ensemble);
  }();
  return dataset;
}

const data::TurbulenceDataset& heldout_dataset() {
  static const data::TurbulenceDataset dataset = [] {
    const ScaleParams p = scale_params();
    std::printf("# generating held-out ensemble (%lld x %lld^2)...\n",
                static_cast<long long>(p.heldout),
                static_cast<long long>(p.grid));
    return data::generate_ensemble(generator_config(424242), p.heldout);
  }();
  return dataset;
}

namespace {

fno::TrainConfig to_train_config(const TrainOptions& options) {
  fno::TrainConfig tc;
  tc.epochs = options.epochs;
  tc.lr = options.lr;
  tc.scheduler_step = options.scheduler_step;
  tc.scheduler_gamma = options.scheduler_gamma;
  return tc;
}

/// Mean relative-L2 rollout error at steps 1..max_steps over the held-out
/// trajectories, both velocity components. Predictions and truth are
/// compared in physical (de-normalised) units.
std::vector<double> rollout_errors_2d(fno::Fno& model,
                                      const analysis::Normalizer& norm,
                                      index_t max_steps) {
  const data::TurbulenceDataset& heldout = heldout_dataset();
  const index_t cin = model.config().in_channels;
  const index_t h = heldout.samples.front().height();
  const index_t w = heldout.samples.front().width();
  const index_t frame = h * w;

  std::vector<double> err(static_cast<std::size_t>(max_steps), 0.0);
  index_t count = 0;
  infer::InferenceEngine engine(model);  // one plan reused across samples
  TensorF traj;
  for (const data::SnapshotSeries& series : heldout.samples) {
    TURB_CHECK(series.steps() >= cin + max_steps);
    for (const TensorF* field : {&series.u1, &series.u2}) {
      TensorF history({1, cin, h, w});
      std::copy_n(field->data(), cin * frame, history.data());
      norm.apply(history);
      engine.rollout_into(history, max_steps, traj);
      for (index_t s = 0; s < max_steps; ++s) {
        TensorD pred({h, w}), truth({h, w});
        for (index_t i = 0; i < frame; ++i) {
          pred[i] = static_cast<double>(traj[s * frame + i]) * norm.stddev() +
                    norm.mean();
          truth[i] = (*field)[(cin + s) * frame + i];
        }
        err[static_cast<std::size_t>(s)] +=
            analysis::relative_l2_difference(pred, truth);
      }
      ++count;
    }
  }
  for (auto& e : err) e /= static_cast<double>(count);
  return err;
}

std::vector<double> rollout_errors_3d(fno::Fno& model,
                                      const analysis::Normalizer& norm,
                                      index_t block) {
  const data::TurbulenceDataset& heldout = heldout_dataset();
  const index_t h = heldout.samples.front().height();
  const index_t w = heldout.samples.front().width();
  const index_t frame = h * w;

  std::vector<double> err(static_cast<std::size_t>(block), 0.0);
  index_t count = 0;
  infer::InferenceEngine engine(model);
  TensorF traj;
  for (const data::SnapshotSeries& series : heldout.samples) {
    TURB_CHECK(series.steps() >= 2 * block);
    TensorF seed({1, 1, block, h, w});
    std::copy_n(series.omega.data(), block * frame, seed.data());
    norm.apply(seed);
    engine.rollout_into(seed, 1, traj);
    for (index_t s = 0; s < block; ++s) {
      TensorD pred({h, w}), truth({h, w});
      for (index_t i = 0; i < frame; ++i) {
        pred[i] = static_cast<double>(traj[s * frame + i]) * norm.stddev() +
                  norm.mean();
        truth[i] = series.omega[(block + s) * frame + i];
      }
      err[static_cast<std::size_t>(s)] +=
          analysis::relative_l2_difference(pred, truth);
    }
    ++count;
  }
  for (auto& e : err) e /= static_cast<double>(count);
  return err;
}

}  // namespace

TrainEvalResult train_and_eval_2d(const fno::FnoConfig& config,
                                  const TrainOptions& options) {
  data::WindowSpec spec;
  spec.in_channels = config.in_channels;
  spec.out_channels = config.out_channels;
  spec.max_windows = options.max_windows;
  TensorF inputs, targets;
  data::make_velocity_channel_windows(shared_dataset(), spec, inputs,
                                      targets);
  const analysis::Normalizer norm = analysis::Normalizer::fit(inputs);
  norm.apply(inputs);
  norm.apply(targets);

  Rng rng(options.seed);
  fno::Fno model(config, rng);
  nn::DataLoader loader(inputs, targets, options.batch, true,
                        options.seed + 7);
  const fno::TrainResult train =
      fno::train_fno(model, loader, to_train_config(options));

  TrainEvalResult result;
  result.final_train_loss = train.final_train_loss();
  result.train_seconds = train.total_seconds;
  result.seconds_per_epoch =
      train.total_seconds / static_cast<double>(options.epochs);
  result.n_windows = inputs.dim(0);
  result.parameters = model.parameter_count();

  // One-shot held-out error.
  TensorF test_x, test_y;
  data::make_velocity_channel_windows(heldout_dataset(), spec, test_x,
                                      test_y);
  norm.apply(test_x);
  norm.apply(test_y);
  result.test_error =
      fno::evaluate_fno(model, test_x, test_y, options.batch).rel_l2;

  result.rollout_error = rollout_errors_2d(model, norm, 10);
  return result;
}

TrainEvalResult train_and_eval_3d(const fno::FnoConfig& config,
                                  const TrainOptions& options) {
  TURB_CHECK(config.rank() == 3);
  const index_t block = 10;
  TensorF inputs, targets;
  data::make_block_windows(shared_dataset(), data::Field::kOmega, block,
                           inputs, targets, options.max_windows);
  const analysis::Normalizer norm = analysis::Normalizer::fit(inputs);
  norm.apply(inputs);
  norm.apply(targets);

  Rng rng(options.seed);
  fno::Fno model(config, rng);
  nn::DataLoader loader(inputs, targets, options.batch, true,
                        options.seed + 7);
  const fno::TrainResult train =
      fno::train_fno(model, loader, to_train_config(options));

  TrainEvalResult result;
  result.final_train_loss = train.final_train_loss();
  result.train_seconds = train.total_seconds;
  result.seconds_per_epoch =
      train.total_seconds / static_cast<double>(options.epochs);
  result.n_windows = inputs.dim(0);
  result.parameters = model.parameter_count();

  TensorF test_x, test_y;
  data::make_block_windows(heldout_dataset(), data::Field::kOmega, block,
                           test_x, test_y);
  norm.apply(test_x);
  norm.apply(test_y);
  result.test_error =
      fno::evaluate_fno(model, test_x, test_y, options.batch).rel_l2;

  result.rollout_error = rollout_errors_3d(model, norm, block);
  return result;
}

HybridSetup train_hybrid_setup() {
  const ScaleParams p = scale_params();
  fno::FnoConfig cfg;
  cfg.in_channels = 10;
  cfg.out_channels = 5;
  cfg.width = p.width_small + p.width_small / 2;
  cfg.n_layers = 4;
  cfg.n_modes = {p.modes, p.modes};
  cfg.lifting_channels = 64;
  cfg.projection_channels = 64;

  data::WindowSpec spec;
  spec.in_channels = cfg.in_channels;
  spec.out_channels = cfg.out_channels;
  spec.max_windows = (bench_scale() == BenchScale::kCi) ? 320 : 0;
  TensorF inputs, targets;
  data::make_velocity_channel_windows(shared_dataset(), spec, inputs,
                                      targets);

  HybridSetup setup;
  setup.norm = analysis::Normalizer::fit(inputs);
  setup.norm.apply(inputs);
  setup.norm.apply(targets);

  Rng rng(3);
  setup.model = std::make_unique<fno::Fno>(cfg, rng);
  nn::DataLoader loader(inputs, targets, p.batch, true, 5);
  fno::TrainConfig tc;
  tc.epochs = p.epochs + p.epochs / 2;
  tc.lr = 2e-3;
  std::printf("# training hybrid surrogate (%lld windows, %lld epochs)...\n",
              static_cast<long long>(inputs.dim(0)),
              static_cast<long long>(tc.epochs));
  const fno::TrainResult train = fno::train_fno(*setup.model, loader, tc);
  std::printf("# surrogate train loss %.4f (%.1fs)\n",
              train.final_train_loss(), train.total_seconds);

  setup.dt_snap = p.dt_tc;
  setup.grid = p.grid;
  setup.viscosity = 1.0 / p.reynolds;
  return setup;
}

core::History heldout_seed(index_t length) {
  const data::TurbulenceDataset& heldout = heldout_dataset();
  const data::SnapshotSeries& series = heldout.samples.front();
  TURB_CHECK(series.steps() >= length);
  core::History history;
  const index_t frame = series.height() * series.width();
  for (index_t s = 0; s < length; ++s) {
    core::FieldSnapshot snap;
    snap.t = heldout.dt_tc * static_cast<double>(s);
    snap.u1 = TensorD({series.height(), series.width()});
    snap.u2 = TensorD({series.height(), series.width()});
    for (index_t i = 0; i < frame; ++i) {
      snap.u1[i] = series.u1[s * frame + i];
      snap.u2[i] = series.u2[s * frame + i];
    }
    history.push_back(std::move(snap));
  }
  return history;
}

std::unique_ptr<ns::NsSolver> make_reference_solver(const HybridSetup& setup) {
  ns::NsConfig cfg;
  cfg.n = setup.grid;
  cfg.viscosity = setup.viscosity;
  cfg.dt = setup.dt_snap / 10.0;
  return std::make_unique<ns::SpectralNsSolver>(cfg);
}

void print_header(const char* bench_name) {
  std::printf("==== %s (scale: %s) ====\n", bench_name,
              bench_scale_name().c_str());
}

}  // namespace turb::bench
