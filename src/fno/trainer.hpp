// Training loop for FNO models (Adam + StepLR + relative-L2 loss), mirroring
// the reference neuraloperator training scripts the paper used.
#pragma once

#include <functional>
#include <vector>

#include "fno/fno.hpp"
#include "nn/dataloader.hpp"

namespace turb::fno {

struct EpochStats {
  index_t epoch = 0;
  double train_loss = 0.0;  // mean relative-L2 over the *finite* batches
  double lr = 0.0;
  double seconds = 0.0;
  // Wall-time split of the epoch (data loading / forward / backward /
  // optimizer step); also exported as the train/* spans of obs::dump_json.
  double data_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double optimizer_seconds = 0.0;
  /// True when the epoch was cut short by a non-finite batch loss: the
  /// offending batch never reached the optimizer or this mean, and the model
  /// was restored to its last good state.
  bool recovered = false;
};

struct TrainConfig {
  index_t epochs = 50;
  double lr = 1e-3;             // paper default
  long scheduler_step = 100;    // paper default
  double scheduler_gamma = 0.5; // paper default
  double weight_decay = 1e-4;
  bool verbose = false;
  /// Invoked after every epoch with that epoch's statistics (after the
  /// verbose line, if any, is printed). Lets callers stream metrics or
  /// implement early stopping without patching the loop.
  std::function<void(const EpochStats&)> on_epoch_end;

  // --- fault handling (robustness layer) ---------------------------------
  /// Detect a non-finite (NaN/inf) batch loss *before* it reaches the
  /// optimizer: the epoch is cut short, weights and optimizer state are
  /// restored from the last good epoch, and the learning rate is scaled by
  /// `lr_backoff`. After `max_recoveries` such events the run aborts with
  /// the last good weights in place (never NaN weights). The finite-loss
  /// path is untouched, so unguarded runs stay bitwise identical.
  bool abort_on_nonfinite = true;
  double lr_backoff = 0.5;     ///< LR multiplier applied per recovery
  index_t max_recoveries = 3;  ///< recoveries before aborting the run

  // --- checkpoint / resume ------------------------------------------------
  /// When non-empty, checkpoints (weights + {"epoch","lr","train_loss"}
  /// metadata) are written here atomically every `checkpoint_every` epochs
  /// and once at the end of training (checkpoint_every == 0 → final only).
  std::string checkpoint_path;
  index_t checkpoint_every = 0;
  /// Load `checkpoint_path` if it exists before training and fast-forward
  /// the epoch counter and LR schedule to the stored epoch. Adam moments
  /// restart from zero (the checkpoint stores weights only).
  bool resume = false;
};

struct TrainResult {
  std::vector<EpochStats> history;
  double total_seconds = 0.0;
  index_t start_epoch = 0;          ///< non-zero when resumed mid-schedule
  index_t recoveries = 0;           ///< non-finite events recovered
  bool aborted = false;             ///< gave up after max_recoveries
  index_t checkpoints_written = 0;  ///< on-disk checkpoint saves
  [[nodiscard]] double final_train_loss() const {
    return history.empty() ? 0.0 : history.back().train_loss;
  }
};

/// Train `model` in place on `loader`. Returns per-epoch statistics.
TrainResult train_fno(Fno& model, nn::DataLoader& loader,
                      const TrainConfig& config);

/// Held-out evaluation summary.
struct EvalResult {
  double rel_l2 = 0.0;     ///< mean relative-L2 error over the set
  index_t n_samples = 0;   ///< samples evaluated
  double seconds = 0.0;    ///< wall time of the evaluation
};

/// Mean relative-L2 error of the model over a held-out set, evaluated in
/// mini-batches of `batch_size`.
EvalResult evaluate_fno(Fno& model, const TensorF& inputs,
                        const TensorF& targets, index_t batch_size = 8);

}  // namespace turb::fno
