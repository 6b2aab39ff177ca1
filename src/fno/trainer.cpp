#include "fno/trainer.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace turb::fno {

namespace {

/// The last state known to be finite: weights, optimizer moments, and the
/// bookkeeping a checkpoint of that state would carry.
struct GoodState {
  std::vector<TensorF> values;
  nn::Adam::State opt;
  index_t epochs_done = 0;
  double train_loss = 0.0;
};

}  // namespace

TrainResult train_fno(Fno& model, nn::DataLoader& loader,
                      const TrainConfig& config) {
  nn::Adam::Config adam_cfg;
  adam_cfg.lr = config.lr;
  adam_cfg.weight_decay = config.weight_decay;
  const std::vector<nn::Parameter*> params = model.parameters();
  nn::Adam optimizer(params, adam_cfg);
  nn::StepLR scheduler(optimizer, config.scheduler_step,
                       config.scheduler_gamma);

  // The verbose printer is just the built-in epoch callback; a user
  // callback runs after it on the same stats.
  const std::function<void(const EpochStats&)> emit =
      [&config](const EpochStats& stats) {
        if (config.verbose) {
          std::printf("epoch %3lld  loss %.5f  lr %.2e  %.2fs%s\n",
                      static_cast<long long>(stats.epoch), stats.train_loss,
                      stats.lr, stats.seconds,
                      stats.recovered ? "  [recovered]" : "");
        }
        if (config.on_epoch_end) config.on_epoch_end(stats);
      };

  obs::TimerStat& span_epoch = obs::timer("train/epoch");
  obs::TimerStat& span_data = obs::timer("train/data");
  obs::TimerStat& span_forward = obs::timer("train/forward");
  obs::TimerStat& span_backward = obs::timer("train/backward");
  obs::TimerStat& span_optimizer = obs::timer("train/optimizer");
  obs::Gauge& gauge_lr = obs::gauge("train/lr");
  // Parallel width the train/* spans ran under (the spans themselves measure
  // wall time on the calling thread, so they stay correct aggregates when
  // the kernels inside them fan out over the pool).
  obs::gauge("train/threads")
      .set(static_cast<double>(ThreadPool::current().size()));

  TrainResult result;

  index_t start_epoch = 0;
  if (config.resume && !config.checkpoint_path.empty() &&
      std::ifstream(config.checkpoint_path, std::ios::binary).good()) {
    nn::Metadata meta;
    nn::load_parameters(config.checkpoint_path, params, &meta);
    const auto it = meta.find("epoch");
    if (it != meta.end()) {
      start_epoch = std::min(static_cast<index_t>(it->second), config.epochs);
      if (start_epoch < 0) start_epoch = 0;
    }
    obs::counter("robust/checkpoint_restores").add();
    if (config.verbose) {
      std::printf("resumed %s at epoch %lld\n", config.checkpoint_path.c_str(),
                  static_cast<long long>(start_epoch));
    }
  }
  result.start_epoch = start_epoch;
  for (index_t i = 0; i < start_epoch; ++i) scheduler.step();

  GoodState good;
  const auto capture = [&](index_t epochs_done, double train_loss) {
    good.values.clear();
    good.values.reserve(params.size());
    for (const nn::Parameter* p : params) good.values.push_back(p->value);
    good.opt = optimizer.state();
    good.epochs_done = epochs_done;
    good.train_loss = train_loss;
  };
  const auto restore = [&] {
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = good.values[i];
    }
    // set_state consumes its argument; keep `good` restorable again.
    nn::Adam::State state;
    state.m = good.opt.m;
    state.v = good.opt.v;
    state.t = good.opt.t;
    optimizer.set_state(std::move(state));
  };
  const auto write_checkpoint = [&](index_t epochs_done, double train_loss) {
    if (config.checkpoint_path.empty()) return;
    const nn::Metadata meta{{"epoch", static_cast<double>(epochs_done)},
                            {"lr", optimizer.lr()},
                            {"train_loss", train_loss}};
    nn::save_parameters(config.checkpoint_path, params, meta);
    ++result.checkpoints_written;
  };
  if (config.abort_on_nonfinite) capture(start_epoch, 0.0);

  double lr_scale = 1.0;  // cumulative fault backoff, re-applied over StepLR
  Timer total;
  for (index_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    Timer epoch_timer;
    loader.start_epoch();
    nn::Batch batch;
    double loss_sum = 0.0;
    index_t batches = 0;
    bool nonfinite = false;
    EpochStats stats;
    Timer phase;
    while (true) {
      phase.reset();
      const bool more = loader.next(batch);
      stats.data_seconds += phase.seconds();
      if (!more) break;

      phase.reset();
      optimizer.zero_grad();
      const TensorF pred = model.forward(batch.x);
      const nn::LossResult loss = nn::relative_l2_loss(pred, batch.y);
      stats.forward_seconds += phase.seconds();
      // Catch the explosion before it reaches EpochStats or the optimizer:
      // a non-finite loss means non-finite gradients, and one Adam step on
      // those leaves the weights unrecoverable.
      if (config.abort_on_nonfinite && !std::isfinite(loss.value)) {
        obs::counter("robust/nonfinite_batches").add();
        nonfinite = true;
        break;
      }

      phase.reset();
      (void)model.backward(loss.grad);
      stats.backward_seconds += phase.seconds();

      phase.reset();
      optimizer.step();
      stats.optimizer_seconds += phase.seconds();

      loss_sum += loss.value;
      ++batches;
    }
    if (nonfinite) {
      ++result.recoveries;
      obs::counter("robust/train_restores").add();
      restore();
      lr_scale *= config.lr_backoff;
      stats.recovered = true;
      if (result.recoveries > config.max_recoveries) {
        result.aborted = true;
        obs::counter("robust/train_aborts").add();
      }
    }
    scheduler.step();
    if (lr_scale != 1.0) optimizer.set_lr(optimizer.lr() * lr_scale);

    stats.epoch = epoch;
    stats.train_loss = batches > 0 ? loss_sum / static_cast<double>(batches)
                                   : 0.0;
    stats.lr = optimizer.lr();
    stats.seconds = epoch_timer.seconds();

    span_epoch.record(stats.seconds);
    span_data.record(stats.data_seconds);
    span_forward.record(stats.forward_seconds);
    span_backward.record(stats.backward_seconds);
    span_optimizer.record(stats.optimizer_seconds);
    gauge_lr.set(stats.lr);

    result.history.push_back(stats);
    emit(stats);

    if (!nonfinite) {
      if (config.abort_on_nonfinite) capture(epoch + 1, stats.train_loss);
      if (config.checkpoint_every > 0 && epoch + 1 < config.epochs &&
          (epoch + 1 - start_epoch) % config.checkpoint_every == 0) {
        write_checkpoint(epoch + 1, stats.train_loss);
      }
    }
    if (result.aborted) break;
  }
  // Final checkpoint reflects the weights actually in place: after a
  // recovery or an abort that is the last good epoch, not the one that blew
  // up.
  if (!config.checkpoint_path.empty()) {
    if (config.abort_on_nonfinite) {
      write_checkpoint(good.epochs_done, good.train_loss);
    } else {
      write_checkpoint(config.epochs, result.final_train_loss());
    }
  }
  result.total_seconds = total.seconds();
  return result;
}

EvalResult evaluate_fno(Fno& model, const TensorF& inputs,
                        const TensorF& targets, index_t batch_size) {
  TURB_TRACE_SCOPE("train/evaluate");
  Timer timer;
  nn::DataLoader loader(inputs, targets, batch_size, /*shuffle=*/false);
  nn::Batch batch;
  double err_sum = 0.0;
  index_t count = 0;
  while (loader.next(batch)) {
    const TensorF pred = model.forward(batch.x);
    err_sum += nn::relative_l2_error(pred, batch.y) *
               static_cast<double>(batch.size());
    count += batch.size();
  }
  EvalResult result;
  result.rel_l2 = count > 0 ? err_sum / static_cast<double>(count) : 0.0;
  result.n_samples = count;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace turb::fno
