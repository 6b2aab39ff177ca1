// Forward-only FNO inference engine: plan once per (batch, grid) shape,
// then execute with zero steady-state heap allocations.
//
// The training path (`Fno::forward`) materialises a fresh tensor per layer,
// caches every layer input for backward, and re-derives workspace per call —
// all dead weight at serving time. The engine replays the exact same
// dataflow out of a single arena (arena.hpp):
//
//   * plan(shape) sizes every activation, FFT spectrum, and per-thread
//     scratch slice up front and hands out aligned arena slices;
//   * the lifting / projection MLPs and the per-block skip path run as
//     fused column-block kernels — GEMM into a register-friendly tile,
//     bias (+GELU) applied in the tile, second GEMM straight into the
//     destination — so no (N, C_lift, S)-sized intermediate ever exists;
//   * spectral weights are prepacked k-major at engine build, one
//     (K, C_out, C_in) complex block per layer, so the kept-mode
//     contraction reads contiguous memory;
//   * the spectral transforms run src/fft's line drivers (fft::rfft_rows,
//     fft::c2c_stage, fft::irfft_rows) on arena slices, with stage geometry
//     from fft::c2c_stages at plan time — the engine owns no FFT line loop,
//     lane-count choice or fft/* counter;
//   * the rollout driver ping-pongs between two arena prediction buffers and
//     shifts temporal channels in place.
//
// Bitwise equality with `Fno::forward` is a hard contract (tests enforce it
// at pool widths 1/2/4): every floating-point value is produced by the same
// per-element operation sequence as the training path — the same gemm_nn
// instantiation on 8-aligned column blocks, the same FFT line drivers and
// kernels, the same ascending-k contraction order, and the same add-bias →
// add-skip → GELU rounding chain through the one GELU kernel
// (nn::gelu_tile). See DESIGN.md "Inference engine" for the argument.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "fft/fftnd.hpp"
#include "fno/fno.hpp"
#include "infer/arena.hpp"
#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace turb::infer {

class InferenceEngine {
 public:
  /// @param model trained FNO (not owned; must outlive the engine). Weights
  /// are snapshotted (prepacked) at construction — call refresh_weights()
  /// after further training steps.
  explicit InferenceEngine(fno::Fno& model);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Re-snapshot the model's weights into the prepacked layouts.
  void refresh_weights();

  /// Plan for input shape (N, C_in, spatial...). Idempotent per shape;
  /// re-planning an already-planned layout only refreshes the captured
  /// thread pool. Lays out the arena and copies the kept-mode map.
  void plan(const Shape& in_shape);

  /// Braced-dims variant (`plan({n, c, h, w})`): routes to the fast path
  /// without materialising a Shape when the dims already match the planned
  /// layout — keeps serving entry points allocation-free in steady state.
  void plan(std::initializer_list<index_t> dims);

  /// Forward pass, bitwise identical to model.forward(x). Re-plans
  /// implicitly on a shape change (counted by infer/steady_state_allocs
  /// when it happens after a prior plan — the caller was supposed to plan).
  /// `y` is resized only when its shape mismatches.
  void forward(const TensorF& x, TensorF& y);

  /// Raw forward over planned-shape buffers: `x` holds N·C_in·S floats,
  /// `y` receives N·C_out·S. Zero heap allocations after warm-up. `x` and
  /// `y` may be arena slices (window_buffer(), pred_buffer()).
  void forward_raw(const float* x, float* y);

  /// Autoregressive rollout of B trajectories. seed has the model-input
  /// shape (B, C_in, spatial...); out is resized to (B, steps, spatial...)
  /// only on shape change, one step being one output-channel frame. Each
  /// forward emits C_out frames per trajectory and the next window slides
  /// the newest C_in frames in (a rank-3 block model is C_in = C_out = 1
  /// with a T×H×W frame). Bitwise identical to stepping Fno::forward by
  /// hand, and each trajectory to its own B = 1 rollout (batch entries ride
  /// independent slabs through every kernel). Re-plans for the seed shape
  /// as needed.
  void rollout_into(const TensorF& seed, index_t steps, TensorF& out);

  /// Arena slice for staging the model input of the planned shape
  /// (N·C_in·S floats) — lets callers (FnoPropagator) marshal external data
  /// without owning a separate buffer. Valid until the next plan().
  [[nodiscard]] float* window_buffer() const;

  /// Arena slice holding N·C_out·S floats (i ∈ {0, 1}; the rollout driver
  /// ping-pongs between the two). Valid until the next plan().
  [[nodiscard]] float* pred_buffer(int i) const;

  /// Shift temporal channels in place after a forward: for each of `batch`
  /// entries, drop the oldest inputs and append the newest predictions
  /// (`win` holds batch·C_in·frame floats, `pred` batch·C_out·frame). Public
  /// because external marshalers (FnoPropagator's batched serving path)
  /// drive forward_raw window-by-window and need the identical slide the
  /// engine's own rollout driver uses — same copy sequence, same bytes.
  void slide_window(float* win, const float* pred, index_t batch,
                    index_t frame) const;

  [[nodiscard]] const fno::FnoConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.bytes(); }

  /// Bytes of prepacked spectral-weight storage (the contraction's working
  /// set; linear weights are excluded).
  [[nodiscard]] std::size_t spectral_weight_bytes() const;
  [[nodiscard]] bool planned() const { return planned_; }
  [[nodiscard]] const Shape& planned_shape() const { return in_shape_; }

 private:
  using cpxf = std::complex<float>;

  void lift(const float* x, float* h);
  void spectral_layer(index_t l, const float* h_in, float* h_out,
                      bool last_layer);
  void project(const float* h, float* y);
  void contract(index_t l, const cpxf* xs, cpxf* ys);

  fno::Fno* model_;
  fno::FnoConfig cfg_;

  // Prepacked weights (snapshotted at construction / refresh_weights()).
  // Linear weights keep their (C_out, C_in) row-major layout — exactly the
  // A-operand layout the gemm_nn panel kernel consumes — in engine-owned
  // 64B-aligned storage; spectral weights are re-laid k-major,
  //   pw[(k·co + o)·ci·2 + 2i] = W[i, o, k]
  // so the ascending-i contraction reads contiguously (the training layout
  // strides by K per i).
  std::vector<float> wl1_, bl1_, wl2_, bl2_;
  std::vector<float> wp1_, bp1_, wp2_, bp2_;
  std::vector<std::vector<float>> wskip_, bskip_;
  std::vector<std::vector<float>> pw_;  // per layer, k-major spectral weights

  // Plan state.
  bool planned_ = false;
  Shape in_shape_;                   // (N, C_in, spatial...)
  Shape out_shape_;                  // (N, C_out, spatial...)
  Shape spatial_;                    // trailing rank() extents
  index_t batch_ = 0;                // N
  index_t s_ = 0;                    // ∏ spatial
  index_t slab_ = 0;                 // spectrum elements per (n, c) slab
  index_t n_last_ = 0;               // last spatial extent (rfft length)
  index_t pre_rows_ = 0;             // ∏ spatial[0..rank-2] (per (n,c) rows)
  index_t kept_ = 0;                 // kept modes K
  std::vector<index_t> spec_offsets_;     // kept mode → offset in slab
  std::vector<std::uint8_t> keep_bins_;   // rfft-axis unpack mask
  std::vector<fft::C2cStage> stages_;     // index = spatial axis a
  ThreadPool* pool_ = nullptr;            // captured at plan()
  std::size_t slots_ = 0;                 // pool_->slot_count() at layout time

  // Arena slices (byte offsets; pointers resolved after commit()).
  Arena arena_;
  std::size_t off_h0_ = 0, off_h1_ = 0;
  std::size_t off_win_ = 0, off_pred0_ = 0, off_pred1_ = 0;
  std::size_t off_xspec_ = 0, off_yspec_ = 0, off_work_ = 0;
  std::size_t off_twf_ = 0, off_twi_ = 0;  // rfft/irfft twiddle tables
  std::vector<std::size_t> off_tile_, off_xg_;  // per slot
  // Per-slot fft::LineScratch (z, u), sized for fft::kMaxLanes so the lane
  // count the live ISA selects always fits without reallocation.
  std::vector<std::size_t> off_fz_, off_fu_;  // per slot
  index_t tile_rows_ = 0;   // max channel count staged in a tile

  // Metrics (registry references cached so the hot path never locks).
  obs::Counter& forward_calls_;
  obs::Counter& replans_;
  obs::Counter& steady_allocs_;
  obs::Gauge& arena_gauge_;
};

}  // namespace turb::infer
