#include "core/fno_propagator.hpp"

#include <algorithm>

namespace turb::core {

FnoPropagator::FnoPropagator(fno::Fno& model, analysis::Normalizer normalizer,
                             double dt_snap)
    : model_(&model),
      engine_(model),
      normalizer_(normalizer),
      dt_snap_(dt_snap) {
  TURB_CHECK(dt_snap_ > 0.0);
  TURB_CHECK_MSG(model_->config().rank() == 2,
                 "FnoPropagator requires a rank-2 (temporal channels) model");
}

std::vector<FieldSnapshot> FnoPropagator::advance(const History& history,
                                                  index_t count) {
  std::vector<FieldSnapshot> out;
  advance_into(history, count, out);
  return out;
}

void FnoPropagator::advance_into(const History& history, index_t count,
                                 std::vector<FieldSnapshot>& out) {
  const History* h = &history;
  std::vector<FieldSnapshot>* o = &out;
  advance_batched_into(engine_, &h, &count, 1, &o);
}

void FnoPropagator::advance_batched_into(
    infer::InferenceEngine& engine, const History* const* histories,
    const index_t* counts, index_t n_streams,
    std::vector<FieldSnapshot>* const* outs) {
  const index_t cin = model_->config().in_channels;
  const index_t cout = model_->config().out_channels;
  TURB_CHECK(n_streams >= 1);
  index_t max_count = 0;
  for (index_t s = 0; s < n_streams; ++s) {
    TURB_CHECK_MSG(static_cast<index_t>(histories[s]->size()) >= cin,
                   "fno propagator needs " << cin
                                           << " history snapshots, got "
                                           << histories[s]->size());
    TURB_CHECK(counts[s] >= 1);
    max_count = std::max(max_count, counts[s]);
  }
  const TensorD& ref = histories[0]->back().u1;
  const index_t h = ref.dim(0), w = ref.dim(1);
  const index_t frame = h * w;

  // All components of all streams in one batch: (2·n, C_in, H, W) — stream
  // s's u1/u2 on batch entries 2s/2s+1 — cast + normalised directly into
  // the engine's arena window; the training-path code built a fresh tensor
  // and ran a second normalisation pass over it. The fused form applies the
  // identical per-element float chain (cast, subtract mean, multiply by
  // 1/std), so the window contents are bitwise unchanged, and batch slabs
  // are independent through every engine kernel, so each stream's bytes
  // match a solo run regardless of who it is co-batched with.
  engine.plan({2 * n_streams, cin, h, w});
  float* win = engine.window_buffer();
  const auto mf = static_cast<float>(normalizer_.mean());
  const auto invf = static_cast<float>(1.0 / normalizer_.stddev());
  for (index_t s = 0; s < n_streams; ++s) {
    const History& history = *histories[s];
    const auto first = history.size() - static_cast<std::size_t>(cin);
    for (index_t c = 0; c < cin; ++c) {
      const FieldSnapshot& snap =
          history[first + static_cast<std::size_t>(c)];
      TURB_CHECK(snap.u1.size() == frame && snap.u2.size() == frame);
      float* w1 = win + ((2 * s + 0) * cin + c) * frame;
      float* w2 = win + ((2 * s + 1) * cin + c) * frame;
      for (index_t i = 0; i < frame; ++i) {
        w1[i] = (static_cast<float>(snap.u1[i]) - mf) * invf;
        w2[i] = (static_cast<float>(snap.u2[i]) - mf) * invf;
      }
    }
    // Reuse the caller's snapshot tensors when shapes match (steady state
    // of a warm session); (re)allocate only on first use or grid change.
    std::vector<FieldSnapshot>& out = *outs[s];
    out.resize(static_cast<std::size_t>(counts[s]));
    const auto is_field = [h, w](const TensorD& t) {
      return t.rank() == 2 && t.dim(0) == h && t.dim(1) == w;
    };
    for (FieldSnapshot& snap : out) {
      if (!is_field(snap.u1)) snap.u1 = TensorD({h, w});
      if (!is_field(snap.u2)) snap.u2 = TensorD({h, w});
    }
  }

  const auto sf = static_cast<float>(normalizer_.stddev());
  const float* pred = engine.pred_buffer(0);
  index_t produced = 0;
  while (produced < max_count) {
    engine.forward_raw(win, engine.pred_buffer(0));
    // Slide the window first (it consumes the normalised prediction), then
    // de-normalise on the fly while extracting snapshots — the prediction
    // buffer itself is never modified, so the slide and the extraction read
    // the same values the training path did. Streams that already have all
    // their snapshots keep riding the batch (their slabs are computed but
    // not extracted) — dropping them mid-batch would change the planned
    // shape and force a re-plan per forward.
    engine.slide_window(win, pred, 2 * n_streams, frame);
    for (index_t s = 0; s < n_streams; ++s) {
      const index_t take =
          std::clamp<index_t>(counts[s] - produced, 0, cout);
      const double t0 = histories[s]->back().t;
      std::vector<FieldSnapshot>& out = *outs[s];
      for (index_t j = 0; j < take; ++j) {
        FieldSnapshot& snap = out[static_cast<std::size_t>(produced + j)];
        snap.t = t0 + dt_snap_ * static_cast<double>(produced + j + 1);
        const float* p1 = pred + ((2 * s + 0) * cout + j) * frame;
        const float* p2 = pred + ((2 * s + 1) * cout + j) * frame;
        for (index_t i = 0; i < frame; ++i) {
          snap.u1[i] = static_cast<double>(p1[i] * sf + mf);
          snap.u2[i] = static_cast<double>(p2[i] * sf + mf);
        }
      }
    }
    produced += cout;
  }
}

}  // namespace turb::core
