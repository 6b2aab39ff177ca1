#include "infer/engine.hpp"

#include <algorithm>
#include <cstring>

#include "nn/activation.hpp"
#include "tensor/gemm.hpp"
#include "util/isa.hpp"

namespace turb::infer {

namespace {

/// Column-block width of the fused MLP/skip kernels. A multiple of the GEMM
/// panel width (8) so in-block panel boundaries land on the same global
/// columns as a full-width gemm_nn call — the load-bearing property for
/// bitwise equality with the training path (panel membership decides which
/// columns take the register-tiled vs tail code path).
constexpr index_t kColBlock = 64;

/// Element-wise shape check without materialising a Shape (no allocation).
bool shape_is(const Shape& s, std::initializer_list<index_t> want) {
  return s.size() == want.size() && std::equal(s.begin(), s.end(), want.begin());
}

void copy_linear(nn::Linear& layer, std::vector<float>& w,
                 std::vector<float>& b) {
  const TensorF& wv = layer.weight().value;
  w.assign(wv.data(), wv.data() + wv.size());
  const TensorF& bv = layer.bias().value;
  b.assign(bv.data(), bv.data() + bv.size());
}

}  // namespace

InferenceEngine::InferenceEngine(fno::Fno& model)
    : model_(&model),
      cfg_(model.config()),
      forward_calls_(obs::counter("infer/forward_calls")),
      replans_(obs::counter("infer/replans")),
      steady_allocs_(obs::counter("infer/steady_state_allocs")),
      arena_gauge_(obs::gauge("infer/arena_bytes")) {
  wskip_.resize(static_cast<std::size_t>(cfg_.n_layers));
  bskip_.resize(static_cast<std::size_t>(cfg_.n_layers));
  pw_.resize(static_cast<std::size_t>(cfg_.n_layers));
  refresh_weights();
}

void InferenceEngine::refresh_weights() {
  copy_linear(model_->lift1(), wl1_, bl1_);
  copy_linear(model_->lift2(), wl2_, bl2_);
  copy_linear(model_->proj1(), wp1_, bp1_);
  copy_linear(model_->proj2(), wp2_, bp2_);
  const index_t w = cfg_.width;
  for (index_t l = 0; l < cfg_.n_layers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    copy_linear(model_->skip(l), wskip_[ls], bskip_[ls]);
    nn::SpectralConv& conv = model_->conv(l);
    const index_t K = conv.kept_modes();
    const float* src = conv.weight().value.data();
    // Training layout W[i, o, k] strides by K per input channel; re-lay
    // k-major so the contraction's ascending-i inner loop is contiguous.
    // A pure gather: every value is copied verbatim, so the arithmetic
    // downstream sees identical operands in identical order.
    std::vector<float>& pw = pw_[ls];
    pw.resize(static_cast<std::size_t>(K * w * w * 2));
    for (index_t k = 0; k < K; ++k) {
      for (index_t o = 0; o < w; ++o) {
        float* dst = pw.data() + (k * w + o) * w * 2;
        for (index_t i = 0; i < w; ++i) {
          const float* wk = src + ((i * w + o) * K + k) * 2;
          dst[2 * i] = wk[0];
          dst[2 * i + 1] = wk[1];
        }
      }
    }
  }
}

std::size_t InferenceEngine::spectral_weight_bytes() const {
  std::size_t bytes = 0;
  for (const auto& v : pw_) bytes += v.size() * sizeof(float);
  return bytes;
}

void InferenceEngine::plan(std::initializer_list<index_t> dims) {
  if (planned_ && shape_is(in_shape_, dims)) {
    plan(in_shape_);  // fast path: only rebinds the current pool
  } else {
    plan(Shape(dims));
  }
}

void InferenceEngine::plan(const Shape& in_shape) {
  TURB_TRACE_SCOPE("nn/infer_plan");
  ThreadPool& pool = ThreadPool::current();
  if (planned_ && in_shape == in_shape_ && slots_ == pool.size()) {
    // Same layout — only refresh the captured pool (a Scope may have
    // switched to a different pool object of the same width).
    pool_ = &pool;
    return;
  }
  const std::size_t rank = cfg_.rank();
  TURB_CHECK_MSG(in_shape.size() == rank + 2,
                 "infer: plan shape must be (N, C_in, spatial...)");
  TURB_CHECK(in_shape[0] >= 1 && in_shape[1] == cfg_.in_channels);

  replans_.add(1);
  // Resolving the ISA here publishes the isa/active gauge even before the
  // first kernel dispatch, so every --metrics-out snapshot that contains a
  // plan also names its kernels.
  (void)util::active_isa();
  batch_ = in_shape[0];
  spatial_.assign(in_shape.begin() + 2, in_shape.end());
  n_last_ = spatial_.back();
  s_ = 1;
  for (const index_t e : spatial_) s_ *= e;
  pre_rows_ = s_ / n_last_;
  slab_ = pre_rows_ * (n_last_ / 2 + 1);

  // Kept-mode map: identical for every layer (same modes, same grid), so
  // take it from layer 0 and snapshot it — the conv may later rebuild its
  // map for a different training shape without invalidating this plan.
  nn::SpectralConv& conv = model_->conv(0);
  conv.ensure_mode_map(spatial_);
  kept_ = conv.kept_modes();
  spec_offsets_ = conv.spec_offsets();
  const fft::ModeMask& mask = conv.mode_mask();
  keep_bins_ = mask.back();

  // c2c stage geometry over the (N, width, spec...) spectrum tensor.
  Shape spec_shape = in_shape;
  spec_shape[1] = cfg_.width;
  spec_shape.back() = n_last_ / 2 + 1;
  stages_ = fft::c2c_stages(spec_shape, static_cast<int>(rank), &mask);

  // Arena layout. Activation ping-pong pair, rollout window + prediction
  // pair, three spectrum slabs, and per-slot kernel scratch.
  const index_t w = cfg_.width;
  const index_t spec_elems = batch_ * w * slab_;
  tile_rows_ = std::max({cfg_.lifting_channels, cfg_.projection_channels, w});
  slots_ = pool.size();
  arena_.begin_layout();
  off_h0_ = arena_.reserve<float>(batch_ * w * s_);
  off_h1_ = arena_.reserve<float>(batch_ * w * s_);
  off_win_ = arena_.reserve<float>(batch_ * cfg_.in_channels * s_);
  off_pred0_ = arena_.reserve<float>(batch_ * cfg_.out_channels * s_);
  off_pred1_ = arena_.reserve<float>(batch_ * cfg_.out_channels * s_);
  off_xspec_ = arena_.reserve<cpxf>(spec_elems);
  off_yspec_ = arena_.reserve<cpxf>(spec_elems);
  off_work_ = arena_.reserve<cpxf>(spec_elems);
  off_twf_ = arena_.reserve<cpxf>(n_last_ / 2 + 1);
  off_twi_ = arena_.reserve<cpxf>(n_last_ / 2);
  off_tile_.assign(slots_, 0);
  off_xg_.assign(slots_, 0);
  off_fz_.assign(slots_, 0);
  off_fu_.assign(slots_, 0);
  // fft::LineScratch: z serves the half-length row sweeps and the one line
  // a per-line c2c stage gathers, so it is sized for the larger of the two.
  const index_t h = n_last_ / 2;
  index_t z_len = h * fft::kMaxLanes;
  for (const fft::C2cStage& st : stages_) z_len = std::max(z_len, st.n);
  for (std::size_t t = 0; t < slots_; ++t) {
    off_tile_[t] = arena_.reserve<float>(tile_rows_ * kColBlock);
    off_xg_[t] = arena_.reserve<cpxf>(w);
    off_fz_[t] = arena_.reserve<cpxf>(z_len);
    off_fu_[t] = arena_.reserve<cpxf>((h + 1) * fft::kMaxLanes);
  }
  arena_.commit();  // zero-fill: establishes the y_spec zero invariant
  arena_gauge_.set(static_cast<double>(arena_.bytes()));

  // Twiddle tables, computed once here instead of per rfft/irfft call — the
  // Tensor transforms call the same fill helpers per call, so table-fed
  // transforms stay bitwise identical to the training path.
  fft::fill_rfft_twiddles(arena_.at<cpxf>(off_twf_), n_last_);
  fft::fill_irfft_twiddles(arena_.at<cpxf>(off_twi_), n_last_);

  pool_ = &pool;
  in_shape_ = in_shape;
  out_shape_ = in_shape;
  out_shape_[1] = cfg_.out_channels;
  planned_ = true;
}

float* InferenceEngine::window_buffer() const {
  TURB_CHECK_MSG(planned_, "infer: window_buffer before plan");
  return arena_.at<float>(off_win_);
}

float* InferenceEngine::pred_buffer(int i) const {
  TURB_CHECK_MSG(planned_, "infer: pred_buffer before plan");
  return arena_.at<float>(i == 0 ? off_pred0_ : off_pred1_);
}

void InferenceEngine::forward(const TensorF& x, TensorF& y) {
  // Implicit replan inside the hot path: the caller skipped plan(). The
  // counter lets the zero-alloc CI gate catch accidental shape churn;
  // explicit plan() calls (benches sweeping shapes) do not count. plan()
  // itself is a cheap no-op on the planned shape but still rebinds the
  // current pool, so a ThreadPool::Scope change between calls stays safe.
  if (planned_ && x.shape() != in_shape_) steady_allocs_.add(1);
  plan(x.shape());
  if (y.shape() != out_shape_) y = TensorF(out_shape_);
  forward_raw(x.data(), y.data());
}

void InferenceEngine::forward_raw(const float* x, float* y) {
  TURB_TRACE_SCOPE("nn/infer_forward");
  TURB_CHECK_MSG(planned_, "infer: forward before plan");
  forward_calls_.add(1);
  float* h0 = arena_.at<float>(off_h0_);
  float* h1 = arena_.at<float>(off_h1_);
  lift(x, h0);
  float* cur = h0;
  float* nxt = h1;
  for (index_t l = 0; l < cfg_.n_layers; ++l) {
    spectral_layer(l, cur, nxt, l + 1 == cfg_.n_layers);
    std::swap(cur, nxt);
  }
  project(cur, y);
}

void InferenceEngine::lift(const float* x, float* h) {
  TURB_TRACE_SCOPE("nn/infer_lift");
  const index_t cin = cfg_.in_channels, cl = cfg_.lifting_channels;
  const index_t w = cfg_.width, s = s_;
  const index_t nblocks = (s + kColBlock - 1) / kColBlock;
  const float* wl1 = wl1_.data();
  const float* bl1 = bl1_.data();
  const float* wl2 = wl2_.data();
  const float* bl2 = bl2_.data();
  pool_->run_chunks(0, batch_ * nblocks, [&](index_t tb, index_t te) {
    const std::size_t slot = pool_->scratch_slot();
    float* tile = arena_.at<float>(off_tile_[slot]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / nblocks;
      const index_t j0 = (t % nblocks) * kColBlock;
      const index_t bs = std::min(kColBlock, s - j0);
      // lift1 GEMM into the tile, bias + GELU fused in the tile, lift2 GEMM
      // straight into h (strided), bias in place — the (N, C_lift, S)
      // intermediate of the training path never exists.
      gemm_nn<float>(cl, bs, cin, 1.0f, wl1, cin, x + n * cin * s + j0, s,
                     0.0f, tile, bs);
      nn::gelu_tile(tile, cl, bs, bs, bl1);
      gemm_nn<float>(w, bs, cl, 1.0f, wl2, cl, tile, bs, 0.0f,
                     h + n * w * s + j0, s);
      for (index_t o = 0; o < w; ++o) {
        float* row = h + n * w * s + o * s + j0;
        const float b = bl2[o];
        for (index_t j = 0; j < bs; ++j) row[j] += b;
      }
    }
  });
}

void InferenceEngine::project(const float* h, float* y) {
  TURB_TRACE_SCOPE("nn/infer_project");
  const index_t w = cfg_.width, cp = cfg_.projection_channels;
  const index_t cout = cfg_.out_channels, s = s_;
  const index_t nblocks = (s + kColBlock - 1) / kColBlock;
  const float* wp1 = wp1_.data();
  const float* bp1 = bp1_.data();
  const float* wp2 = wp2_.data();
  const float* bp2 = bp2_.data();
  pool_->run_chunks(0, batch_ * nblocks, [&](index_t tb, index_t te) {
    const std::size_t slot = pool_->scratch_slot();
    float* tile = arena_.at<float>(off_tile_[slot]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / nblocks;
      const index_t j0 = (t % nblocks) * kColBlock;
      const index_t bs = std::min(kColBlock, s - j0);
      gemm_nn<float>(cp, bs, w, 1.0f, wp1, w, h + n * w * s + j0, s, 0.0f,
                     tile, bs);
      nn::gelu_tile(tile, cp, bs, bs, bp1);
      gemm_nn<float>(cout, bs, cp, 1.0f, wp2, cp, tile, bs, 0.0f,
                     y + n * cout * s + j0, s);
      for (index_t o = 0; o < cout; ++o) {
        float* row = y + n * cout * s + o * s + j0;
        const float b = bp2[o];
        for (index_t j = 0; j < bs; ++j) row[j] += b;
      }
    }
  });
}

void InferenceEngine::contract(index_t l, const cpxf* xs, cpxf* ys) {
  const index_t w = cfg_.width, K = kept_, slab = slab_;
  const index_t* offs = spec_offsets_.data();
  const float* pw = pw_[static_cast<std::size_t>(l)].data();
  pool_->run_chunks(0, batch_ * K, [&](index_t tb, index_t te) {
    cpxf* xg = arena_.at<cpxf>(off_xg_[pool_->scratch_slot()]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / K;
      const index_t k = t % K;
      const index_t off = offs[k];
      const cpxf* xn = xs + n * w * slab;
      cpxf* yn = ys + n * w * slab;
      // Gather the input channels of this mode once (a verbatim copy),
      // then run the training contraction: for every output channel,
      // accumulate over input channels in ascending order — the identical
      // per-element expression and rounding sequence as the training
      // forward, just with contiguous (prepacked) weight reads.
      for (index_t i = 0; i < w; ++i) xg[i] = xn[i * slab + off];
      const float* pk = pw + k * w * w * 2;
      for (index_t o = 0; o < w; ++o) {
        const float* po = pk + o * w * 2;
        float ar = 0.0f, ai = 0.0f;
        for (index_t i = 0; i < w; ++i) {
          const cpxf xv = xg[i];
          const float wr = po[2 * i];
          const float wi = po[2 * i + 1];
          ar += wr * xv.real() - wi * xv.imag();
          ai += wr * xv.imag() + wi * xv.real();
        }
        yn[o * slab + off] = cpxf(ar, ai);
      }
    }
  });
}

void InferenceEngine::spectral_layer(index_t l, const float* h_in,
                                     float* h_out, bool last_layer) {
  TURB_TRACE_SCOPE("nn/infer_spectral");
  cpxf* xspec = arena_.at<cpxf>(off_xspec_);
  cpxf* yspec = arena_.at<cpxf>(off_yspec_);
  cpxf* work = arena_.at<cpxf>(off_work_);
  const std::size_t rank = cfg_.rank();
  ThreadPool& pool = *pool_;
  const index_t rows = batch_ * cfg_.width * pre_rows_;
  // The line drivers' scratch provider: the running pool slot's pair.
  const auto scratch = [this] {
    const std::size_t slot = pool_->scratch_slot();
    return fft::LineScratch<float>{arena_.at<cpxf>(off_fz_[slot]),
                                   arena_.at<cpxf>(off_fu_[slot])};
  };

  // Forward transform of h_in: the fft::rfftn_into stage order (rfft rows,
  // then c2c stages innermost-first) through the same line drivers.
  fft::rfft_rows(pool, h_in, xspec, rows, n_last_,
                 keep_bins_.empty() ? nullptr : keep_bins_.data(),
                 arena_.at<cpxf>(off_twf_), scratch);
  for (std::size_t a = rank - 1; a-- > 0;) {
    fft::c2c_stage(pool, xspec, xspec, stages_[a], /*forward=*/true, scratch);
  }

  // Kept-mode contraction into y_spec (zero outside kept offsets by the
  // arena-commit invariant), then the irfftn path into h_out. y_spec must
  // stay pristine — the next layer's contraction rewrites only kept
  // offsets — so inverse stages never run in place on it. Rank 2 has a
  // single c2c stage, which reads y_spec and writes the workspace directly
  // (skipped lines leave workspace zeros that match the zeros a fresh copy
  // would hold, because skipped ⊆ outside the product mask). With two or
  // more stages that shortcut is unsound — a later stage writes positions
  // an earlier stage skips, so layer-stale values would survive where the
  // training path sees zeros — hence the slab copy.
  contract(l, xspec, yspec);
  if (rank == 2) {
    fft::c2c_stage(pool, yspec, work, stages_[0], /*forward=*/false, scratch);
  } else {
    std::memcpy(work, yspec,
                static_cast<std::size_t>(batch_ * cfg_.width * slab_) *
                    sizeof(cpxf));
    for (std::size_t a = 0; a + 1 < rank; ++a) {
      fft::c2c_stage(pool, work, work, stages_[a], /*forward=*/false,
                     scratch);
    }
  }
  fft::irfft_rows(pool, work, h_out, rows, n_last_, arena_.at<cpxf>(off_twi_),
                  scratch);

  // Fused skip path: 1×1 skip GEMM into the tile, then per element the
  // training rounding chain — skip = fl(gemm + bias); v = fl(spat + skip);
  // GELU except on the last block — written in place over the irfft output.
  // (A beta=1 GEMM accumulating into h_out would round as
  // fl(fl(spat + Σ) + bias) instead — a different sequence; forbidden.)
  // A per-spatial-row irfft+skip fusion (one pass over h_out) was measured
  // and lost: it trades the h_out re-read for strided transform I/O, a net
  // regression over the streaming two-pass layout below.
  const index_t w = cfg_.width, s = s_;
  const float* wsk = wskip_[static_cast<std::size_t>(l)].data();
  const float* bsk = bskip_[static_cast<std::size_t>(l)].data();
  const index_t nblocks = (s + kColBlock - 1) / kColBlock;
  pool_->run_chunks(0, batch_ * nblocks, [&](index_t tb, index_t te) {
    const std::size_t slot = pool_->scratch_slot();
    float* tile = arena_.at<float>(off_tile_[slot]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / nblocks;
      const index_t j0 = (t % nblocks) * kColBlock;
      const index_t bs = std::min(kColBlock, s - j0);
      gemm_nn<float>(w, bs, w, 1.0f, wsk, w, h_in + n * w * s + j0, s, 0.0f,
                     tile, bs);
      float* dst = h_out + n * w * s + j0;
      if (!last_layer) {
        nn::gelu_tile(dst, w, bs, s, bsk, tile, bs);
      } else {
        for (index_t o = 0; o < w; ++o) {
          const float* srow = tile + o * bs;
          float* drow = dst + o * s;
          const float b = bsk[o];
          for (index_t j = 0; j < bs; ++j) drow[j] += srow[j] + b;
        }
      }
    }
  });
}

void InferenceEngine::slide_window(float* win, const float* pred,
                                   index_t batch, index_t frame) const {
  const index_t cin = cfg_.in_channels, cout = cfg_.out_channels;
  for (index_t b = 0; b < batch; ++b) {
    float* wb = win + b * cin * frame;
    const float* pb = pred + b * cout * frame;
    if (cout >= cin) {
      std::copy_n(pb + (cout - cin) * frame, cin * frame, wb);
    } else {
      // Overlapping forward copy: dest < src, reads stay ahead of writes.
      std::copy(wb + cout * frame, wb + cin * frame, wb);
      std::copy_n(pb, cout * frame, wb + (cin - cout) * frame);
    }
  }
}

void InferenceEngine::rollout_into(const TensorF& seed, index_t steps,
                                   TensorF& out) {
  TURB_TRACE_SCOPE("nn/infer_rollout");
  const std::size_t rank = cfg_.rank();
  TURB_CHECK_MSG(seed.rank() == rank + 2 && seed.dim(1) == cfg_.in_channels,
                 "rollout seed must be (B, C_in, spatial...)");
  TURB_CHECK(steps >= 1);
  const Shape& ss = seed.shape();
  const index_t nb = ss[0];
  index_t frame = 1;
  for (std::size_t d = 2; d < ss.size(); ++d) frame *= ss[d];
  const index_t cin = cfg_.in_channels, cout = cfg_.out_channels;
  plan(ss);
  const Shape& os = out.shape();
  if (os.size() != ss.size() || os[0] != nb || os[1] != steps ||
      !std::equal(ss.begin() + 2, ss.end(), os.begin() + 2)) {
    Shape want = ss;
    want[1] = steps;
    out = TensorF(std::move(want));
  }

  // A single trajectory with C_out >= C_in finds its next window as the tail
  // of this prediction: point straight into the ping buffer and write the
  // next step into the pong buffer. Otherwise slide the window in place,
  // keeping input and output buffers disjoint.
  const bool suffix = nb == 1 && cout >= cin;
  float* win = window_buffer();
  std::copy_n(seed.data(), nb * cin * frame, win);
  const float* cur_in = win;
  int pp = 0;
  index_t produced = 0;
  while (produced < steps) {
    float* pred = pred_buffer(pp);
    forward_raw(cur_in, pred);
    const index_t take = std::min(cout, steps - produced);
    for (index_t b = 0; b < nb; ++b) {
      std::copy_n(pred + b * cout * frame, take * frame,
                  out.data() + (b * steps + produced) * frame);
    }
    produced += take;
    if (suffix) {
      cur_in = pred + (cout - cin) * frame;
      pp ^= 1;
    } else {
      slide_window(win, pred, nb, frame);
    }
  }
}

}  // namespace turb::infer
