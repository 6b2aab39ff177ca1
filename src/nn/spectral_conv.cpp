#include "nn/spectral_conv.hpp"

#include <cmath>
#include <vector>

#include "fft/fftnd.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace turb::nn {

namespace {

/// Weight shape (C_in, C_out, m₁, …, m_{r-1}, m_r/2+1, 2); validates the
/// modes first, since the weight is the first member built from them.
Shape weight_shape(index_t in_ch, index_t out_ch,
                   const std::vector<index_t>& n_modes) {
  TURB_CHECK_MSG(n_modes.size() == 2 || n_modes.size() == 3,
                 "SpectralConv supports rank 2 or 3");
  for (const index_t m : n_modes) {
    TURB_CHECK_MSG(m >= 2 && m % 2 == 0, "n_modes must be even, got " << m);
  }
  Shape s{in_ch, out_ch};
  for (std::size_t d = 0; d + 1 < n_modes.size(); ++d) s.push_back(n_modes[d]);
  s.push_back(n_modes.back() / 2 + 1);
  s.push_back(2);  // real/imag
  return s;
}

/// Process-wide pruning switch (results are bitwise independent of it, so a
/// plain global — no synchronisation needed beyond what callers already do).
bool g_prune_transforms = true;

}  // namespace

void SpectralConv::set_pruning(bool on) { g_prune_transforms = on; }

bool SpectralConv::pruning() { return g_prune_transforms; }

SpectralConv::SpectralConv(index_t in_channels, index_t out_channels,
                           std::vector<index_t> n_modes, Rng& rng,
                           std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      n_modes_(std::move(n_modes)),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              weight_shape(in_channels_, out_channels_, n_modes_)) {
  const std::size_t rank = n_modes_.size();
  wdims_.resize(rank);
  for (std::size_t d = 0; d + 1 < rank; ++d) wdims_[d] = n_modes_[d];
  wdims_[rank - 1] = n_modes_.back() / 2 + 1;
  kept_modes_ = 1;
  for (const index_t m : wdims_) kept_modes_ *= m;
  // neuraloperator init: N(0, 2/(C_in + C_out)) on both components.
  const double std =
      std::sqrt(2.0 / static_cast<double>(in_channels_ + out_channels_));
  weight_.value.fill_normal(rng, 0.0, std);
}

void SpectralConv::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
}

void SpectralConv::build_mode_map(const Shape& spatial) {
  if (spatial == mapped_spatial_) return;
  const std::size_t rank = n_modes_.size();
  TURB_CHECK(spatial.size() == rank);
  for (std::size_t d = 0; d + 1 < rank; ++d) {
    TURB_CHECK_MSG(n_modes_[d] <= spatial[d],
                   name_ << ": n_modes[" << d << "]=" << n_modes_[d]
                         << " exceeds grid extent " << spatial[d]);
  }
  TURB_CHECK_MSG(n_modes_.back() <= spatial.back(),
                 name_ << ": last-axis modes exceed grid extent");

  // Spectrum extents: last axis is halved by rfft.
  Shape spec = spatial;
  spec.back() = spatial.back() / 2 + 1;
  spec_slab_ = numel(spec);
  norm_m_ = 1.0;
  for (const index_t s : spatial) norm_m_ *= static_cast<double>(s);

  // Enumerate kept-mode multi-indices in the weight's row-major order and
  // record the matching flat offset in the spectrum slab.
  spec_offsets_.assign(static_cast<std::size_t>(kept_modes_), 0);
  bin_weight_.assign(static_cast<std::size_t>(kept_modes_), 1.0f);
  const Shape spec_strides = row_major_strides(spec);

  std::vector<index_t> k(rank, 0);
  for (index_t flat = 0; flat < kept_modes_; ++flat) {
    index_t offset = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      index_t s_index;
      if (d + 1 < rank) {
        // Half the modes are positive frequencies [0, m/2), half negative
        // [S - m/2, S).
        const index_t half = n_modes_[d] / 2;
        s_index = (k[d] < half) ? k[d] : spatial[d] - (n_modes_[d] - k[d]);
      } else {
        s_index = k[d];
      }
      offset += s_index * spec_strides[d];
    }
    spec_offsets_[static_cast<std::size_t>(flat)] = offset;
    // rfft-axis multiplicity: interior bins represent two Hermitian
    // coefficients of the full spectrum.
    const index_t klast = k[rank - 1];
    const bool edge = (klast == 0) || (klast == spatial.back() / 2);
    bin_weight_[static_cast<std::size_t>(flat)] = edge ? 1.0f : 2.0f;
    // Increment multi-index.
    for (std::size_t d = rank; d-- > 0;) {
      if (++k[d] < wdims_[d]) break;
      k[d] = 0;
    }
  }

  // Per-axis kept-coordinate flags for the pruned transforms: the same
  // corner-of-modes pattern as the offsets above (half positive / half
  // negative frequencies on c2c axes, leading non-negative bins on the rfft
  // axis).
  mode_mask_.assign(rank, {});
  for (std::size_t d = 0; d < rank; ++d) {
    if (d + 1 < rank) {
      std::vector<std::uint8_t> keep(static_cast<std::size_t>(spatial[d]), 0);
      const index_t half = n_modes_[d] / 2;
      for (index_t s = 0; s < half; ++s) keep[static_cast<std::size_t>(s)] = 1;
      for (index_t s = spatial[d] - half; s < spatial[d]; ++s) {
        keep[static_cast<std::size_t>(s)] = 1;
      }
      mode_mask_[d] = std::move(keep);
    } else {
      std::vector<std::uint8_t> keep(
          static_cast<std::size_t>(spec.back()), 0);
      for (index_t s = 0; s < n_modes_.back() / 2 + 1; ++s) {
        keep[static_cast<std::size_t>(s)] = 1;
      }
      mode_mask_[d] = std::move(keep);
    }
  }

  mapped_spatial_ = spatial;
}

TensorF SpectralConv::forward(const TensorF& x) {
  TURB_TRACE_SCOPE("nn/spectral_conv_fwd");
  const std::size_t rank = n_modes_.size();
  TURB_CHECK_MSG(x.rank() == rank + 2,
                 name_ << ": expected (N, C, spatial...) input");
  TURB_CHECK(x.dim(1) == in_channels_);
  Shape spatial(x.shape().begin() + 2, x.shape().end());
  build_mode_map(spatial);
  in_shape_ = x.shape();

  const index_t batch = x.dim(0);
  // Pruned transform into the member workspace: only kept-mode coordinates
  // of x_spec_ are valid, which is all the contraction below (and the dW
  // accumulation in backward) ever reads.
  fft::rfftn_into(x, static_cast<int>(rank), x_spec_, prune_mask());

  Shape yspec_shape = x_spec_.shape();
  yspec_shape[1] = out_channels_;
  // Zero-initialised on (re)allocation; on reuse every kept offset is
  // overwritten below and the rest stays zero.
  if (y_spec_.shape() != yspec_shape) y_spec_ = Tensor<cpxf>(yspec_shape);

  const index_t K = kept_modes_;
  const float* w = weight_.value.data();
  const cpxf* xs = x_spec_.data();
  cpxf* ys = y_spec_.data();
  const index_t ci = in_channels_, co = out_channels_;

  parallel_for(0, batch, [&](index_t n) {
    const cpxf* xn = xs + n * ci * spec_slab_;
    cpxf* yn = ys + n * co * spec_slab_;
    for (index_t k = 0; k < K; ++k) {
      const index_t off = spec_offsets_[static_cast<std::size_t>(k)];
      for (index_t o = 0; o < co; ++o) {
        float ar = 0.0f, ai = 0.0f;
        for (index_t i = 0; i < ci; ++i) {
          // W[i, o, k]: weight layout (C_in, C_out, K, 2).
          const float* wk = w + ((i * co + o) * K + k) * 2;
          const cpxf xv = xn[i * spec_slab_ + off];
          ar += wk[0] * xv.real() - wk[1] * xv.imag();
          ai += wk[0] * xv.imag() + wk[1] * xv.real();
        }
        yn[o * spec_slab_ + off] = cpxf(ar, ai);
      }
    }
  });

  return fft::irfftn(y_spec_, static_cast<int>(rank), spatial.back(),
                     prune_mask());
}

TensorF SpectralConv::backward(const TensorF& grad_out) {
  TURB_TRACE_SCOPE("nn/spectral_conv_bwd");
  TURB_CHECK_MSG(!in_shape_.empty(), name_ << ": backward before forward");
  const std::size_t rank = n_modes_.size();
  TURB_CHECK(grad_out.rank() == rank + 2 && grad_out.dim(1) == out_channels_);
  const index_t batch = in_shape_[0];
  const index_t ci = in_channels_, co = out_channels_;
  const index_t K = kept_modes_;

  // dŶ = rfftn(dy) ⊙ w / M (kept modes only are consumed below, so the
  // transform is pruned like the forward one).
  fft::rfftn_into(grad_out, static_cast<int>(rank), g_spec_, prune_mask());
  const float inv_m = static_cast<float>(1.0 / norm_m_);

  // dX̂ (kept modes only, zero elsewhere — zeroed on allocation, kept
  // offsets fully overwritten on reuse).
  if (dx_spec_.shape() != x_spec_.shape()) {
    dx_spec_ = Tensor<cpxf>(x_spec_.shape());
  }

  const float* w = weight_.value.data();
  const cpxf* gs = g_spec_.data();
  const cpxf* xs = x_spec_.data();
  cpxf* dxs = dx_spec_.data();

  // dX̂[n,i] = Σ_o conj(W[i,o]) · dŶ[n,o]  — parallel over batch.
  parallel_for(0, batch, [&](index_t n) {
    const cpxf* gn = gs + n * co * spec_slab_;
    cpxf* dxn = dxs + n * ci * spec_slab_;
    for (index_t k = 0; k < K; ++k) {
      const index_t off = spec_offsets_[static_cast<std::size_t>(k)];
      // Fold the two scale factors: dŶ gets bin_weight/M, dX̂ gets M/bin_weight
      // — they cancel along this path, so apply none here.
      for (index_t i = 0; i < ci; ++i) {
        float ar = 0.0f, ai = 0.0f;
        for (index_t o = 0; o < co; ++o) {
          const float* wk = w + ((i * co + o) * K + k) * 2;
          const cpxf gv = gn[o * spec_slab_ + off];
          // conj(W) * g
          ar += wk[0] * gv.real() + wk[1] * gv.imag();
          ai += wk[0] * gv.imag() - wk[1] * gv.real();
        }
        dxn[i * spec_slab_ + off] = cpxf(ar, ai);
      }
    }
  });

  // dW[i,o,k] += Σ_n conj(X̂[n,i,k]) · dŶ[n,o,k] · bin_weight/M.
  //
  // Batch-parallel with per-slab gradient scratch: the batch is split into a
  // fixed number of contiguous slabs (independent of the pool width — see
  // parallel_for_slabs), each slab accumulates its partial dW into private
  // scratch, and the slabs are folded in ascending slot order. That fixed
  // reduction tree makes the gradient bitwise identical at every thread
  // count; atomics on the float accumulators would not be.
  const index_t wsize = ci * co * K * 2;
  const index_t slabs = slab_count(0, batch, kGradSlabs);
  // assign() zeroes the accumulators while reusing the capacity from the
  // previous step.
  grad_scratch_.assign(static_cast<std::size_t>(slabs * wsize), 0.0f);
  std::vector<float>& scratch = grad_scratch_;
  parallel_for_slabs(0, batch, kGradSlabs,
                     [&](index_t slot, index_t nb, index_t ne) {
    float* acc = scratch.data() + slot * wsize;
    for (index_t n = nb; n < ne; ++n) {
      const cpxf* xn = xs + n * ci * spec_slab_;
      const cpxf* gn = gs + n * co * spec_slab_;
      for (index_t i = 0; i < ci; ++i) {
        for (index_t k = 0; k < K; ++k) {
          const index_t off = spec_offsets_[static_cast<std::size_t>(k)];
          const cpxf xv = xn[i * spec_slab_ + off];
          for (index_t o = 0; o < co; ++o) {
            const cpxf gv = gn[o * spec_slab_ + off];
            float* a = acc + ((i * co + o) * K + k) * 2;
            // conj(x) * g
            a[0] += xv.real() * gv.real() + xv.imag() * gv.imag();
            a[1] += xv.real() * gv.imag() - xv.imag() * gv.real();
          }
        }
      }
    }
  });
  // Fold slabs in fixed order. Each weight element is written by one task
  // only (disjoint ranges), so this inner parallelism is also deterministic.
  float* gw = weight_.grad.data();
  parallel_for_chunked(0, ci * co, [&](index_t pb, index_t pe) {
    for (index_t p = pb; p < pe; ++p) {
      for (index_t k = 0; k < K; ++k) {
        const float scale = bin_weight_[static_cast<std::size_t>(k)] * inv_m;
        float ar = 0.0f, ai = 0.0f;
        for (index_t s = 0; s < slabs; ++s) {
          const float* a = scratch.data() + s * wsize + (p * K + k) * 2;
          ar += a[0];
          ai += a[1];
        }
        float* wk = gw + (p * K + k) * 2;
        wk[0] += ar * scale;
        wk[1] += ai * scale;
      }
    }
  });

  // dx = M · irfftn(dX̂ ⊙ 1/w) — combined with the 1/M ⊙ w of dŶ, the scale
  // factors cancel exactly, so dx = irfftn-adjoint path with no extra scaling:
  // dx = irfftn(dX̂) · M · (1/M) ... both factors were folded above, leaving
  // plain irfftn on the unscaled product.
  TensorF dx = fft::irfftn(dx_spec_, static_cast<int>(rank), in_shape_.back(),
                           prune_mask());
  return dx;
}

}  // namespace turb::nn
