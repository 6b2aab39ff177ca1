// Batched N-dimensional transforms over the trailing axes of a Tensor, and
// the 1-D line drivers behind every N-D transform in the library.
//
// rfftn/irfftn transform the trailing `ndim` axes (real last axis, complex
// for the rest), which is exactly the layout the FNO spectral convolutions
// need: (batch, channels, spatial...) with the transform applied per
// batch/channel slab. Lines are processed in parallel on the current pool.
//
// Line drivers: rfft_rows / irfft_rows (the real stage, over contiguous
// rows) and c2c_stage (one complex axis, its geometry from c2c_stages) are
// the only code that walks FFT lines. They own the line partition, the lane
// batching (lane count from the live util::active_isa(); one-row sweeps and
// the per-line c2c arm under TURBFNO_FFT_BATCH=0), the mode pruning and the
// fft/* line counters. Callers supply only a pool and memory: the Tensor
// entry points below pass thread-local workspace and a per-call twiddle
// table, the inference engine (infer/engine.hpp) its plan-time arena
// slices. Both therefore run one implementation, which keeps the two paths
// bitwise equal by construction (DESIGN.md "Spectral path performance").
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
#include <string_view>
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

/// Per-worker scratch a line driver takes from its caller's provider, once
/// per chunk on the thread running the chunk. `z` holds (n/2)·kMaxLanes
/// elements for the row drivers and one line (n) for c2c_stage, whose
/// per-line arm gathers a strided line into it (its column runs need no
/// scratch); `u` holds (n/2+1)·kMaxLanes and only the row drivers read it.
/// Sized by kMaxLanes, a provider fits whatever lane count the live ISA
/// selects.
template <typename T>
struct LineScratch {
  std::complex<T>* z = nullptr;
  std::complex<T>* u = nullptr;
};

/// One complex-to-complex stage of an N-D transform: outer·inner lines of
/// length n, line (o, i) starting at element o·n·inner + i with stride
/// inner. `keep` holds one flag per inner coordinate (empty = all kept);
/// lines at a pruned inner coordinate are skipped.
struct C2cStage {
  index_t n = 0;
  index_t outer = 0;
  index_t inner = 0;
  std::vector<std::uint8_t> keep;
};

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

/// Lanes per batched row sweep: one per the live ISA, or 1 with line
/// batching off (one-row sweeps of the same row core).
inline index_t row_lanes() {
  return line_batching_enabled() ? lane_count(util::active_isa()) : 1;
}

/// Publish one chunk's batching deltas: `batched` lines through a lane
/// kernel, `tails` of them in ragged row sweeps, `columns` of them in
/// column runs. Drivers accumulate locally and publish once per chunk — a
/// relaxed add per batch is still a shared cache line bouncing between
/// every worker thread.
inline void add_batch_counts(std::int64_t batched, std::int64_t tails,
                             std::int64_t columns) {
  static obs::Counter& batched_lines = obs::counter("fft/batched_lines");
  static obs::Counter& tail_lines = obs::counter("fft/batch_tail_lines");
  static obs::Counter& column_lines = obs::counter("fft/column_lines");
  batched_lines.add(batched);
  if (tails != 0) tail_lines.add(tails);
  if (columns != 0) column_lines.add(columns);
}

/// The row drivers' partition: sweep(scratch, first_row, lanes_in_batch) for
/// each lane batch of `rows` rows, dispatched over `pool` by batch, so a
/// chunk always holds whole batches. Batch b covers rows
/// [b·B, min(rows, (b+1)·B)) for B = row_lanes(); only the last is ragged,
/// and a one-batch sweep runs on the caller.
template <typename Scratch, typename Sweep>
void for_each_row_batch(ThreadPool& pool, index_t rows, const Scratch& scratch,
                        const Sweep& sweep) {
  const index_t lanes = row_lanes();
  pool.run_chunks(0, (rows + lanes - 1) / lanes, [&](index_t bb, index_t be) {
    const auto s = scratch();
    std::int64_t batched = 0, tails = 0;
    for (index_t b = bb; b < be; ++b) {
      const index_t nl = std::min(lanes, rows - b * lanes);
      sweep(s, b * lanes, nl);
      batched += nl;
      if (nl < lanes) tails += nl;
    }
    if (lanes > 1) add_batch_counts(batched, tails, 0);
  });
}

}  // namespace detail

/// Geometry of the c2c stages of a transform over the trailing `ndim` axes
/// of a spectrum shaped `spec_shape`: element j is transformed axis j in
/// ModeMask order (0 = outermost; the rfft axis has no c2c stage). Each
/// stage prunes by the mask of the axes after it, which are in spectral
/// coordinates whenever it runs. Forward transforms run the stages last to
/// first, inverse transforms first to last.
inline std::vector<C2cStage> c2c_stages(const Shape& spec_shape, int ndim,
                                        const ModeMask* mask) {
  const std::size_t rank = spec_shape.size();
  const auto nd = static_cast<std::size_t>(ndim);
  std::vector<C2cStage> stages(nd - 1);
  for (std::size_t j = 0; j + 1 < nd; ++j) {
    const std::size_t axis = rank - nd + j;
    C2cStage& st = stages[j];
    st.n = spec_shape[axis];
    st.outer = 1;
    st.inner = 1;
    for (std::size_t a = 0; a < axis; ++a) st.outer *= spec_shape[a];
    for (std::size_t a = axis + 1; a < rank; ++a) st.inner *= spec_shape[a];
    if (mask != nullptr) {
      st.keep = detail::inner_keep_flags(*mask, j + 1, spec_shape, nd);
    }
  }
  return stages;
}

/// Real stage of a forward transform: rfft of `rows` contiguous length-n
/// rows of `in` into rows of n/2+1 bins of `out`, in whole lane batches
/// over `pool` (detail::for_each_row_batch).
/// Bins not flagged in `keep_bins` (nullptr = all) are skipped and their
/// slots left untouched. `tw` is the fill_rfft_twiddles table; `scratch()`
/// returns the running worker's LineScratch.
template <typename T, typename Scratch>
void rfft_rows(ThreadPool& pool, const T* in, std::complex<T>* out,
               index_t rows, index_t n, const std::uint8_t* keep_bins,
               const std::complex<T>* tw, const Scratch& scratch) {
  static obs::Counter& r2c_lines = obs::counter("fft/r2c_lines");
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  r2c_lines.add(rows);
  lines_total.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const index_t out_row = n / 2 + 1;
  // Consecutive rows go through the row core B at a time; with batching off
  // each row is a one-lane batch of the same core.
  detail::for_each_row_batch(
      pool, rows, scratch,
      [&](const LineScratch<T>& s, index_t r, index_t nl) {
        rfft_batch_scratch(in + r * n, n, out + r * out_row, out_row, n, nl,
                           keep_bins, s.z, s.u, tw);
      });
}

/// Real stage of an inverse transform: irfft of `rows` contiguous rows of
/// n/2+1 bins of `in` into length-n rows of `out`. `tw` is the
/// fill_irfft_twiddles table; otherwise as rfft_rows.
template <typename T, typename Scratch>
void irfft_rows(ThreadPool& pool, const std::complex<T>* in, T* out,
                index_t rows, index_t n, const std::complex<T>* tw,
                const Scratch& scratch) {
  static obs::Counter& c2r_lines = obs::counter("fft/c2r_lines");
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  c2r_lines.add(rows);
  lines_total.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const index_t in_row = n / 2 + 1;
  detail::for_each_row_batch(
      pool, rows, scratch,
      [&](const LineScratch<T>& s, index_t r, index_t nl) {
        irfft_batch_scratch(in + r * in_row, in_row, out + r * n, n, n, nl,
                            s.z, s.u, tw);
      });
}

/// One complex stage: transforms the kept lines of `st` read from `src`
/// into `dst` (forward unscaled, inverse scaled by 1/n), chunked over
/// `pool`. `src` may differ from `dst` (the two must not overlap); lines
/// skipped by `st.keep` then leave `dst` untouched. `scratch()` returns the
/// running worker's LineScratch (only `z` is used).
template <typename T, typename Scratch>
void c2c_stage(ThreadPool& pool, const std::complex<T>* src,
               std::complex<T>* dst, const C2cStage& st, bool forward,
               const Scratch& scratch) {
  using cpx = std::complex<T>;
  const index_t n = st.n, inner = st.inner;
  if (n == 1) return;
  // Pruning coverage counters (exported via --metrics-out): every candidate
  // line counts toward lines_total, masked-out lines toward
  // pruned_lines_skipped.
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  static obs::Counter& lines_skipped = obs::counter("fft/pruned_lines_skipped");
  lines_total.add(st.outer * inner);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const std::uint8_t* keep = nullptr;
  if (!st.keep.empty()) {
    keep = st.keep.data();
    const auto kept = std::count_if(st.keep.begin(), st.keep.end(),
                                    [](std::uint8_t f) { return f != 0; });
    lines_skipped.add(st.outer * (inner - kept));
  }
  const PlanC2C<T>& p = plan<T>(n);

  // Lines are independent (disjoint read/write slices), so chunks run in
  // any order. Skip tests sit inside the chunk bodies and never move chunk
  // boundaries, so the partition — and with it the thread-count
  // determinism contract — does not depend on pruning.
  //
  // Column runs: the lines of one outer block are the columns of an
  // (n, inner) row-major block, so on the lane kernels each run of adjacent
  // kept columns is one batch transformed in place (stride inner) — no
  // gather, no scatter. Chunks are tiles of kMaxLanes columns, which caps
  // a batch at the row-sweep width and keeps its n rows in L1; pruning
  // only splits runs inside a tile. A line's bits do not depend on the run
  // it lands in (see fft/plan.hpp), so the grouping is unobservable.
  if (line_batching_enabled() && p.batch_wants_lanes()) {
    const index_t tiles = (inner + kMaxLanes - 1) / kMaxLanes;
    pool.run_chunks(0, st.outer * tiles, [&](index_t tb, index_t te) {
      std::int64_t columns = 0;
      for (index_t t = tb; t < te; ++t) {
        const index_t block = (t / tiles) * n * inner;
        const index_t first = (t % tiles) * kMaxLanes;
        const index_t end = std::min(inner, first + kMaxLanes);
        for (index_t i = first; i < end;) {
          if (keep != nullptr && keep[i] == 0) {
            ++i;
            continue;
          }
          index_t width = 1;
          while (i + width < end && (keep == nullptr || keep[i + width] != 0)) {
            ++width;
          }
          const cpx* in = src + block + i;
          cpx* out = dst + block + i;
          forward ? p.forward_batch(in, out, width, inner)
                  : p.inverse_batch(in, out, width, inner);
          columns += width;
          i += width;
        }
      }
      detail::add_batch_counts(columns, 0, columns);
    });
    return;
  }

  // Per-line arm: plans without lane kernels (scalar tier, Bluestein
  // lengths) and the TURBFNO_FFT_BATCH=0 reference gather each strided
  // line into scratch, run the single-line kernel and scatter it back.
  pool.run_chunks(0, st.outer * inner, [&](index_t tb, index_t te) {
    cpx* work = scratch().z;
    for (index_t t = tb; t < te; ++t) {
      const index_t i = t % inner;
      if (keep != nullptr && keep[i] == 0) continue;
      const index_t offset = (t / inner) * n * inner + i;
      for (index_t j = 0; j < n; ++j) work[j] = src[offset + j * inner];
      forward ? p.forward(work) : p.inverse(work);
      for (index_t j = 0; j < n; ++j) dst[offset + j * inner] = work[j];
    }
  });
}

namespace detail {

/// Thread-local row-driver scratch of the Tensor entry points: `z` and `u`
/// back to back in one workspace slot.
template <typename T>
LineScratch<T> row_workspace(std::string_view slot, index_t n) {
  const index_t h = n / 2;
  std::complex<T>* buf =
      workspace<std::complex<T>>(slot, {(2 * h + 1) * kMaxLanes}).data();
  return {buf, buf + h * kMaxLanes};
}

/// One in-place c2c stage of a Tensor entry point, on the current pool with
/// thread-local scratch, timed as an fft/c2c span.
template <typename T>
void c2c_in_place(std::complex<T>* data, const C2cStage& st, bool forward) {
  TURB_TRACE_SCOPE("fft/c2c");
  c2c_stage(ThreadPool::current(), data, data, st, forward, [n = st.n] {
    return LineScratch<T>{
        workspace<std::complex<T>>("fft/c2c_line", {n}).data()};
  });
}

}  // namespace detail

/// In-place complex FFT along `axis` over every line of the tensor. With
/// `inner_keep` (one flag per flattened coordinate of the axes after
/// `axis`), lines whose inner coordinate is pruned are left untouched.
template <typename T>
void c2c_axis(Tensor<std::complex<T>>& x, std::size_t axis, bool forward,
              const std::vector<std::uint8_t>* inner_keep = nullptr) {
  TURB_CHECK(axis < x.rank());
  const Shape& shape = x.shape();
  C2cStage st{shape[axis], 1, 1, {}};
  for (std::size_t i = 0; i < axis; ++i) st.outer *= shape[i];
  for (std::size_t i = axis + 1; i < shape.size(); ++i) st.inner *= shape[i];
  if (inner_keep != nullptr && !inner_keep->empty()) {
    TURB_CHECK_MSG(static_cast<index_t>(inner_keep->size()) == st.inner,
                   "inner_keep has " << inner_keep->size()
                                     << " flags for inner extent " << st.inner);
    st.keep = *inner_keep;
  }
  detail::c2c_in_place(x.data(), st, forward);
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

  // Every row must be transformed (the other transform axes are still in
  // spatial coordinates here), but output bins of a pruned last-axis
  // coordinate are never read downstream, so the per-row unpack skips them.
  const std::uint8_t* keep_bins = nullptr;
  if (mask != nullptr && !mask->back().empty()) {
    keep_bins = mask->back().data();
  }
  cpx* tw = workspace<cpx>("fft/rfft_tw", {n_last / 2 + 1}).data();
  fill_rfft_twiddles(tw, n_last);
  rfft_rows(ThreadPool::current(), x.data(), out.data(),
            numel(in_shape) / n_last, n_last, keep_bins, tw, [n_last] {
              return detail::row_workspace<T>("fft/rfft_lanes", n_last);
            });

  const std::vector<C2cStage> stages = c2c_stages(out_shape, ndim, mask);
  for (std::size_t j = stages.size(); j-- > 0;) {
    detail::c2c_in_place(out.data(), stages[j], /*forward=*/true);
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
  // copy is skipped entirely. Pruned lines are exactly zero by the caller
  // contract.
  const cpx* spec = x.data();
  if (ndim > 1) {
    Tensor<cpx>& work = workspace<cpx>("fft/irfftn_work", x.shape());
    std::copy(x.data(), x.data() + x.size(), work.data());
    for (const C2cStage& st : c2c_stages(x.shape(), ndim, mask)) {
      detail::c2c_in_place(work.data(), st, /*forward=*/false);
    }
    spec = work.data();
  }

  Shape out_shape = x.shape();
  out_shape[rank - 1] = n_last;
  if (out.shape() != out_shape) out = Tensor<T>(out_shape);
  cpx* tw = workspace<cpx>("fft/irfft_tw", {n_last / 2}).data();
  fill_irfft_twiddles(tw, n_last);
  irfft_rows(ThreadPool::current(), spec, out.data(),
             numel(out_shape) / n_last, n_last, tw, [n_last] {
               return detail::row_workspace<T>("fft/irfft_lanes", n_last);
             });
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
