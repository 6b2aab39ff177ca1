// Spectral convolution — the core FNO layer — with a dense per-mode complex
// weight (C_in, C_out, K): the modern `neuraloperator` convention, which
// reproduces the paper's Table I parameter counts exactly.
//
// Forward:  y = irfftn( W ⊙ rfftn(x) )   restricted to a retained corner of
// Fourier modes. The complex weight has shape
//   (C_in, C_out, m₁, …, m_{r-1}, m_r/2+1, 2)
// where r is the spatial rank (2 or 3), m_d = n_modes[d]; non-last axes keep
// m_d modes split half positive / half negative frequency, the last (rfft)
// axis keeps m_r/2+1 non-negative frequencies.
//
// Backward: hand-derived adjoint. With M = ∏ transformed extents and w the
// per-bin multiplicity (2 for interior rfft-axis bins, 1 for DC/Nyquist):
//   dŶ = rfftn(dy) ⊙ w / M
//   dX̂ = Wᴴ dŶ           (conjugate transpose over channels, kept modes only)
//   dW = conj(X̂) dŶᵀ      (accumulated over batch)
//   dx = M · irfftn(dX̂ ⊙ 1/w)
// Each identity is validated by finite-difference gradchecks in the tests.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "fft/fftnd.hpp"
#include "nn/module.hpp"
#include "util/rng.hpp"

namespace turb::nn {

class SpectralConv final : public Module {
 public:
  SpectralConv(index_t in_channels, index_t out_channels,
               std::vector<index_t> n_modes, Rng& rng,
               std::string name = "spectral_conv");

  /// Globally enable/disable mode-pruned FFTs (default on). The results are
  /// bitwise identical either way — pruning only skips transform lines whose
  /// outputs are never read (forward) or whose inputs are exactly zero
  /// (inverse) — so this switch exists for baseline measurements
  /// (bench_perf_train times both settings).
  static void set_pruning(bool on);
  [[nodiscard]] static bool pruning();

  TensorF forward(const TensorF& x) override;
  TensorF backward(const TensorF& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] Parameter& weight() { return weight_; }
  [[nodiscard]] index_t in_channels() const { return in_channels_; }
  [[nodiscard]] index_t out_channels() const { return out_channels_; }
  [[nodiscard]] const std::vector<index_t>& n_modes() const {
    return n_modes_;
  }

  /// Retained-mode count K = m₁·…·m_{r-1}·(m_r/2+1).
  [[nodiscard]] index_t kept_modes() const { return kept_modes_; }

  /// (Re)build the mode map for a spatial shape and expose it, so the
  /// inference engine can drive the identical pruned-FFT + kept-mode
  /// contraction out of its own arena. Idempotent per shape.
  void ensure_mode_map(const Shape& spatial) {
    if (spatial != mapped_spatial_) build_mode_map(spatial);
  }
  [[nodiscard]] const std::vector<index_t>& spec_offsets() const {
    return spec_offsets_;
  }
  [[nodiscard]] const fft::ModeMask& mode_mask() const { return mode_mask_; }

 private:
  using cpxf = std::complex<float>;

  /// Mask to pass to the fft entry points (nullptr when pruning is off).
  [[nodiscard]] const fft::ModeMask* prune_mask() const {
    return pruning() ? &mode_mask_ : nullptr;
  }

  /// (Re)build the kept-mode → spectrum-offset map for a spatial shape.
  void build_mode_map(const Shape& spatial);

  index_t in_channels_;
  index_t out_channels_;
  std::vector<index_t> n_modes_;
  index_t kept_modes_;
  std::vector<index_t> wdims_;  // per-axis kept extents
  std::string name_;
  Parameter weight_;  // layout (C_in, C_out, K, 2)

  // Mode map state (rebuilt when the spatial shape changes — FNO is
  // resolution-agnostic, so the same weights serve any grid ≥ the modes).
  Shape mapped_spatial_;
  std::vector<index_t> spec_offsets_;  // per kept mode: offset inside a slab
  std::vector<float> bin_weight_;      // per kept mode: 1 or 2 (rfft edge/interior)
  index_t spec_slab_ = 0;              // spectrum elements per (n, c) slab
  double norm_m_ = 1.0;                // ∏ spatial extents
  fft::ModeMask mode_mask_;            // per-axis kept-coordinate flags

  // Cached activations and reused spectrum workspaces. y_spec_ / dx_spec_
  // rely on an invariant: they are zero-initialised on (re)allocation and
  // only ever written at kept-mode offsets, which the contraction loops
  // fully overwrite on every call — so the zeros outside the kept set never
  // need refreshing.
  Shape in_shape_;
  Tensor<cpxf> x_spec_;   // rfftn(x), kept for dW
  Tensor<cpxf> y_spec_;   // forward output spectrum
  Tensor<cpxf> g_spec_;   // backward: rfftn(grad_out)
  Tensor<cpxf> dx_spec_;  // backward: dX̂
  std::vector<float> grad_scratch_;  // per-slab dW partials
};

}  // namespace turb::nn
