// Batched N-dimensional transforms over the trailing axes of a Tensor.
//
// rfftn/irfftn transform the trailing `ndim` axes (real last axis, complex
// for the rest), which is exactly the layout the FNO spectral convolutions
// need: (batch, channels, spatial...) with the transform applied per
// batch/channel slab. Lines are processed in parallel on the global thread
// pool.
//
// Mode-pruned transforms: callers that only consume (forward) or only
// populate (inverse) a subset of spectrum coordinates — the FNO spectral
// convolution keeps m ≪ N modes per axis — can pass a ModeMask. The c2c
// stages then skip every 1-D line whose already-transformed coordinates lie
// outside the kept set:
//
//   * forward: a skipped line's outputs are never read by the caller, and
//     the lines that are computed run the identical per-line kernel on
//     identical inputs, so kept coordinates are bitwise identical to the
//     full transform;
//   * inverse: a skipped line's inputs are exactly zero (caller contract:
//     the spectrum is zero wherever any masked coordinate is pruned), and
//     zeros propagate exactly through the butterflies, so the final real
//     output is bitwise identical to the full transform.
//
// The 1-D real stage (rfft/irfft rows) is never pruned: its lines are
// indexed by coordinates that are dense on that side of the transform.
//
// The `_into` variants write through a caller-held output tensor
// (reallocated only on shape change) and the inverse path stages through a
// workspace.hpp scratch buffer, keeping the allocator off the training hot
// path.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <vector>

#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "fft/workspace.hpp"
#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/thread_pool.hpp"

namespace turb::fft {

/// Per-trailing-axis kept-coordinate flags for mode-pruned transforms.
/// mask[j] (j = 0 for the outermost transformed axis, …, ndim-1 for the
/// rfft axis) holds one byte per spectrum coordinate of that axis — the
/// full extent for c2c axes, n/2+1 for the last — nonzero meaning "kept".
/// An empty per-axis vector keeps every coordinate of that axis.
using ModeMask = std::vector<std::vector<std::uint8_t>>;

namespace detail {

/// Flatten the per-axis masks of trailing axes [first, ndim) into keep
/// flags over their row-major product — the `inner` block of a c2c line
/// dispatch along a more-outer axis. Returns an empty vector when those
/// axes prune nothing.
inline std::vector<std::uint8_t> inner_keep_flags(const ModeMask& mask,
                                                  std::size_t first,
                                                  const Shape& spec_shape,
                                                  std::size_t ndim) {
  const std::size_t rank = spec_shape.size();
  bool any = false;
  for (std::size_t j = first; j < ndim; ++j) {
    if (!mask[j].empty()) any = true;
  }
  if (!any) return {};
  index_t inner = 1;
  for (std::size_t j = first; j < ndim; ++j) {
    inner *= spec_shape[rank - ndim + j];
  }
  std::vector<std::uint8_t> keep(static_cast<std::size_t>(inner), 1);
  for (index_t i = 0; i < inner; ++i) {
    index_t rem = i;
    for (std::size_t j = ndim; j-- > first;) {
      const index_t extent = spec_shape[rank - ndim + j];
      const index_t coord = rem % extent;
      rem /= extent;
      if (!mask[j].empty() && mask[j][static_cast<std::size_t>(coord)] == 0) {
        keep[static_cast<std::size_t>(i)] = 0;
        break;
      }
    }
  }
  return keep;
}

inline void validate_mask(const ModeMask* mask, const Shape& spec_shape,
                          int ndim) {
  if (mask == nullptr) return;
  TURB_CHECK_MSG(mask->size() == static_cast<std::size_t>(ndim),
                 "ModeMask has " << mask->size() << " axes, transform has "
                                 << ndim);
  const std::size_t rank = spec_shape.size();
  for (std::size_t j = 0; j < mask->size(); ++j) {
    const auto& axis_mask = (*mask)[j];
    const auto extent = static_cast<std::size_t>(
        spec_shape[rank - static_cast<std::size_t>(ndim) + j]);
    TURB_CHECK_MSG(axis_mask.empty() || axis_mask.size() == extent,
                   "ModeMask axis " << j << " has " << axis_mask.size()
                                    << " flags for extent " << extent);
  }
}

}  // namespace detail

/// In-place complex FFT along `axis` over every line of the tensor. With
/// `inner_keep` (one flag per flattened coordinate of the axes after
/// `axis`), lines whose inner coordinate is pruned are left untouched.
template <typename T>
void c2c_axis(Tensor<std::complex<T>>& x, std::size_t axis, bool forward,
              const std::vector<std::uint8_t>* inner_keep = nullptr) {
  using cpx = std::complex<T>;
  TURB_TRACE_SCOPE("fft/c2c");
  TURB_CHECK(axis < x.rank());
  const Shape& shape = x.shape();
  const index_t n = shape[axis];
  if (n == 1) return;
  index_t outer = 1, inner = 1;
  for (std::size_t i = 0; i < axis; ++i) outer *= shape[i];
  for (std::size_t i = axis + 1; i < shape.size(); ++i) inner *= shape[i];

  // Pruning coverage counters (exported via --metrics-out): every candidate
  // line counts toward lines_total, masked-out lines toward
  // pruned_lines_skipped.
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  static obs::Counter& lines_skipped = obs::counter("fft/pruned_lines_skipped");
  lines_total.add(outer * inner);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const std::uint8_t* keep = nullptr;
  if (inner_keep != nullptr && !inner_keep->empty()) {
    TURB_CHECK_MSG(static_cast<index_t>(inner_keep->size()) == inner,
                   "inner_keep has " << inner_keep->size()
                                     << " flags for inner extent " << inner);
    keep = inner_keep->data();
    index_t kept = 0;
    for (const std::uint8_t flag : *inner_keep) kept += (flag != 0);
    lines_skipped.add(outer * (inner - kept));
  }

  const PlanC2C<T>& p = plan<T>(n);
  cpx* data = x.data();

  // Lines are independent (disjoint read/write slices), so batch dispatch is
  // chunked over the pool: each task transforms a contiguous run of lines,
  // amortising the dispatch cost over many transforms. The skip test inside
  // the body does not move chunk boundaries, so the partition — and with it
  // the thread-count determinism contract — is unchanged.
  if (inner == 1) {
    if (keep != nullptr && keep[0] == 0) return;
    parallel_for_chunked(0, outer, [&](index_t ob, index_t oe) {
      for (index_t o = ob; o < oe; ++o) {
        cpx* line = data + o * n;
        forward ? p.forward(line) : p.inverse(line);
      }
    });
    return;
  }

  // Strided lines: when the plan has lane kernels, collect kept lines into
  // lane-interleaved batches of up to B and run them through the
  // lane-per-line plan path. Collection happens within each chunk, so the
  // chunk partition — and the thread-count determinism contract — is
  // unchanged; a line's bits do not depend on its batch occupancy (see
  // fft/plan.hpp), so the grouping (which shifts with pruning gaps, chunk
  // boundaries, and ragged tails) is unobservable. Plans without lane
  // kernels (scalar tier, Bluestein lengths) take the per-line loop below.
  const index_t batch = line_batching_enabled() && p.batch_wants_lanes()
                            ? lane_count<T>(util::active_isa())
                            : 1;
  if (batch > 1) {
    static obs::Counter& batched_lines = obs::counter("fft/batched_lines");
    static obs::Counter& tail_lines = obs::counter("fft/batch_tail_lines");
    parallel_for_chunked(0, outer * inner, [&](index_t tb, index_t te) {
      Tensor<cpx>& buf = workspace<cpx>("fft/c2c_lanes", {n * batch});
      cpx* work = buf.data();
      cpx* lanes[kMaxLanes];
      index_t count = 0;
      // Counter deltas accumulate locally and publish once per chunk — a
      // relaxed add per flush is still a shared cache line bouncing between
      // every worker thread.
      std::int64_t my_batched = 0, my_tails = 0;
      const auto flush = [&] {
        if (count == 0) return;
        for (index_t l = 0; l < count; ++l) {
          const cpx* base = lanes[l];
          for (index_t j = 0; j < n; ++j) {
            work[j * count + l] = base[j * inner];
          }
        }
        forward ? p.forward_batch(work, count) : p.inverse_batch(work, count);
        for (index_t l = 0; l < count; ++l) {
          cpx* base = lanes[l];
          for (index_t j = 0; j < n; ++j) {
            base[j * inner] = work[j * count + l];
          }
        }
        my_batched += count;
        if (count < batch) my_tails += count;
        count = 0;
      };
      for (index_t t = tb; t < te; ++t) {
        const index_t o = t / inner;
        const index_t i = t % inner;
        if (keep != nullptr && keep[i] == 0) continue;
        lanes[count++] = data + o * n * inner + i;
        if (count == batch) flush();
      }
      flush();
      if (my_batched != 0) batched_lines.add(my_batched);
      if (my_tails != 0) tail_lines.add(my_tails);
    });
    return;
  }

  parallel_for_chunked(0, outer * inner, [&](index_t tb, index_t te) {
    thread_local std::vector<cpx> line;
    line.resize(static_cast<std::size_t>(n));
    for (index_t t = tb; t < te; ++t) {
      const index_t o = t / inner;
      const index_t i = t % inner;
      if (keep != nullptr && keep[i] == 0) continue;
      cpx* base = data + o * n * inner + i;
      for (index_t j = 0; j < n; ++j) line[static_cast<std::size_t>(j)] = base[j * inner];
      forward ? p.forward(line.data()) : p.inverse(line.data());
      for (index_t j = 0; j < n; ++j) base[j * inner] = line[static_cast<std::size_t>(j)];
    }
  });
}

/// Real-to-complex transform of the trailing `ndim` axes into `out`
/// (reallocated only when the spectrum shape changes). With a mask, spectrum
/// positions having any pruned coordinate are unspecified (they hold
/// partially transformed values); kept positions are bitwise identical to
/// the unmasked transform.
template <typename T>
void rfftn_into(const Tensor<T>& x, int ndim, Tensor<std::complex<T>>& out,
                const ModeMask* mask = nullptr) {
  using cpx = std::complex<T>;
  TURB_TRACE_SCOPE("fft/r2c");
  TURB_CHECK(ndim >= 1 && static_cast<std::size_t>(ndim) <= x.rank());
  const Shape& in_shape = x.shape();
  const std::size_t rank = in_shape.size();
  const index_t n_last = in_shape[rank - 1];
  Shape out_shape = in_shape;
  out_shape[rank - 1] = n_last / 2 + 1;
  detail::validate_mask(mask, out_shape, ndim);

  if (out.shape() != out_shape) out = Tensor<cpx>(out_shape);
  const index_t rows = numel(in_shape) / n_last;
  static obs::Counter& lines = obs::counter("fft/r2c_lines");
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  lines.add(rows);
  lines_total.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const index_t out_row = out_shape[rank - 1];
  const T* in_data = x.data();
  cpx* out_data = out.data();
  // Every row must be transformed (the other transform axes are still in
  // spatial coordinates here), but output bins of a pruned last-axis
  // coordinate are never read downstream, so the per-row unpack skips them.
  const std::uint8_t* keep_bins = nullptr;
  if (mask != nullptr && !mask->back().empty()) {
    keep_bins = mask->back().data();
  }
  const index_t batch =
      line_batching_enabled() ? lane_count<T>(util::active_isa()) : 1;
  if (batch > 1) {
    static obs::Counter& batched_lines = obs::counter("fft/batched_lines");
    static obs::Counter& tail_lines = obs::counter("fft/batch_tail_lines");
    const index_t h = n_last / 2;
    parallel_for_chunked(0, rows, [&](index_t rb, index_t re) {
      Tensor<cpx>& zbuf = workspace<cpx>("fft/rfft_z_lanes", {h * batch});
      Tensor<cpx>& ubuf = workspace<cpx>("fft/rfft_u_lanes", {(h + 1) * batch});
      Tensor<cpx>& twbuf = workspace<cpx>("fft/rfft_tw", {h + 1});
      fill_rfft_twiddles(twbuf.data(), n_last);
      std::int64_t my_batched = 0, my_tails = 0;
      for (index_t r = rb; r < re; r += batch) {
        const index_t nl = std::min(batch, re - r);
        rfft_batch_scratch(in_data + r * n_last, n_last,
                           out_data + r * out_row, out_row, n_last, nl,
                           keep_bins, zbuf.data(), ubuf.data(), twbuf.data());
        my_batched += nl;
        if (nl < batch) my_tails += nl;
      }
      batched_lines.add(my_batched);
      if (my_tails != 0) tail_lines.add(my_tails);
    });
  } else {
    parallel_for_chunked(0, rows, [&](index_t rb, index_t re) {
      for (index_t r = rb; r < re; ++r) {
        rfft(in_data + r * n_last, out_data + r * out_row, n_last, keep_bins);
      }
    });
  }

  // Remaining (complex) transform axes, innermost-first order is arbitrary.
  // Stage d transforms trailing axis j = ndim-1-d; the axes after j are
  // already in spectral coordinates, so their masks prune whole lines.
  for (int d = 1; d < ndim; ++d) {
    const std::size_t axis = rank - 1 - static_cast<std::size_t>(d);
    std::vector<std::uint8_t> keep;
    if (mask != nullptr) {
      keep = detail::inner_keep_flags(
          *mask, static_cast<std::size_t>(ndim - d), out_shape,
          static_cast<std::size_t>(ndim));
    }
    c2c_axis(out, axis, /*forward=*/true, keep.empty() ? nullptr : &keep);
  }
}

/// Real-to-complex transform of the trailing `ndim` axes.
/// Input shape (..., S1, ..., Sd) → output (..., S1, ..., Sd/2+1).
template <typename T>
Tensor<std::complex<T>> rfftn(const Tensor<T>& x, int ndim,
                              const ModeMask* mask = nullptr) {
  Tensor<std::complex<T>> out;
  rfftn_into(x, ndim, out, mask);
  return out;
}

/// Inverse of rfftn, into `out` (reallocated only on shape change).
/// `n_last` is the original size of the last axis (it is not recoverable
/// from the truncated spectrum alone). With a mask, the caller guarantees
/// the spectrum is exactly zero at every position having any pruned
/// coordinate; the result is then bitwise identical to the unmasked
/// transform.
template <typename T>
void irfftn_into(const Tensor<std::complex<T>>& x, int ndim, index_t n_last,
                 Tensor<T>& out, const ModeMask* mask = nullptr) {
  using cpx = std::complex<T>;
  TURB_TRACE_SCOPE("fft/c2r");
  TURB_CHECK(ndim >= 1 && static_cast<std::size_t>(ndim) <= x.rank());
  const std::size_t rank = x.rank();
  TURB_CHECK_MSG(x.shape()[rank - 1] == n_last / 2 + 1,
                 "spectrum last-axis size inconsistent with n_last");
  detail::validate_mask(mask, x.shape(), ndim);

  // The inverse c2c stages run in place on a workspace copy; with ndim == 1
  // there are no c2c stages, so the rows are read straight from `x` and the
  // copy is skipped entirely.
  const cpx* spec = x.data();
  if (ndim > 1) {
    Tensor<cpx>& work = workspace<cpx>("fft/irfftn_work", x.shape());
    std::copy(x.data(), x.data() + x.size(), work.data());
    // Outermost trailing axis first; the axes after stage j's axis are still
    // untransformed spectral coordinates, so their masks prune whole lines
    // (which are exactly zero by the caller contract).
    for (int d = ndim - 1; d >= 1; --d) {
      const std::size_t axis = rank - 1 - static_cast<std::size_t>(d);
      std::vector<std::uint8_t> keep;
      if (mask != nullptr) {
        keep = detail::inner_keep_flags(
            *mask, static_cast<std::size_t>(ndim - d), x.shape(),
            static_cast<std::size_t>(ndim));
      }
      c2c_axis(work, axis, /*forward=*/false, keep.empty() ? nullptr : &keep);
    }
    spec = work.data();
  }

  Shape out_shape = x.shape();
  out_shape[rank - 1] = n_last;
  if (out.shape() != out_shape) out = Tensor<T>(out_shape);
  const index_t in_row = x.shape()[rank - 1];
  const index_t rows = numel(out_shape) / n_last;
  static obs::Counter& lines = obs::counter("fft/c2r_lines");
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  lines.add(rows);
  lines_total.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  T* out_data = out.data();
  const index_t batch =
      line_batching_enabled() ? lane_count<T>(util::active_isa()) : 1;
  if (batch > 1) {
    static obs::Counter& batched_lines = obs::counter("fft/batched_lines");
    static obs::Counter& tail_lines = obs::counter("fft/batch_tail_lines");
    const index_t h = n_last / 2;
    parallel_for_chunked(0, rows, [&](index_t rb, index_t re) {
      Tensor<cpx>& zbuf = workspace<cpx>("fft/irfft_z_lanes", {h * batch});
      Tensor<cpx>& ubuf =
          workspace<cpx>("fft/irfft_u_lanes", {(h + 1) * batch});
      Tensor<cpx>& twbuf = workspace<cpx>("fft/irfft_tw", {h});
      fill_irfft_twiddles(twbuf.data(), n_last);
      std::int64_t my_batched = 0, my_tails = 0;
      for (index_t r = rb; r < re; r += batch) {
        const index_t nl = std::min(batch, re - r);
        irfft_batch_scratch(spec + r * in_row, in_row,
                            out_data + r * n_last, n_last, n_last, nl,
                            zbuf.data(), ubuf.data(), twbuf.data());
        my_batched += nl;
        if (nl < batch) my_tails += nl;
      }
      batched_lines.add(my_batched);
      if (my_tails != 0) tail_lines.add(my_tails);
    });
  } else {
    parallel_for_chunked(0, rows, [&](index_t rb, index_t re) {
      for (index_t r = rb; r < re; ++r) {
        irfft(spec + r * in_row, out_data + r * n_last, n_last);
      }
    });
  }
}

/// Inverse of rfftn. `n_last` is the original size of the last axis.
template <typename T>
Tensor<T> irfftn(const Tensor<std::complex<T>>& x, int ndim, index_t n_last,
                 const ModeMask* mask = nullptr) {
  Tensor<T> out;
  irfftn_into(x, ndim, n_last, out, mask);
  return out;
}

}  // namespace turb::fft
