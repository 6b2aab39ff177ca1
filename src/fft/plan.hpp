// Complex-to-complex FFT plans.
//
// Power-of-two lengths use an iterative radix-2 Cooley–Tukey transform with
// precomputed bit-reversal and twiddle tables. Arbitrary lengths fall back to
// Bluestein's chirp-z algorithm (needed for the length-10 temporal axis of
// the 3D FNO). Twiddles are always computed in double precision.
//
// Normalisation convention (NumPy/PyTorch): forward is unscaled, inverse
// divides by n.
//
// The radix-2 butterfly loop dispatches per execute() call on
// util::active_isa(): the scalar loop below is the reference, the AVX2/FMA
// stage kernel in fft/kernels_avx2.hpp the fast path. The AVX2 path reads
// per-stage contiguous twiddle tables (stage_tw_, copied bitwise from
// twiddle_ at plan build) instead of the strided twiddle_[j*step] walk.
// Bluestein lengths reach the dispatch through their power-of-two sub-plan.
// The lane-batched avx2 path (forward_batch / inverse_batch) runs the
// stages two at a time, stages len and 2·len in one pass over the rows
// (avx2::radix2_pair_lanes), and the last stage alone when log2 n is odd:
// the same butterflies in the same order, so the bits of one stage per
// pass, at half the row loads and stores.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <memory>
#include <numbers>
#include <type_traits>
#include <vector>

#include "fft/kernels_avx2.hpp"
#include "util/common.hpp"
#include "util/isa.hpp"

namespace turb::fft {

inline bool is_pow2(index_t n) { return n > 0 && (n & (n - 1)) == 0; }

inline index_t next_pow2(index_t n) {
  index_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// ---- Lane-per-line batching ------------------------------------------------
//
// The batched execution path transforms B independent lines at once, held
// side by side: element j of lane l at x[j*stride + l]. stride = B is a
// lane-interleaved scratch block (the rfft/irfft row drivers gather rows
// into one); a larger stride is a run of B adjacent columns of a row-major
// array, which fft::c2c_stage transforms in place with no gather at all.
// Every butterfly stage, Bluestein chirp multiply, and rfft/irfft
// pack/unpack bin is evaluated across lanes with the per-position twiddle
// broadcast, so each lane executes the identical per-line operation
// sequence. A line's bits therefore do not depend on how many lanes share
// its batch (batch occupancy invariance) — full batches, ragged tails,
// column runs and the single-line path all agree bitwise per ISA tier,
// which is what keeps the Tier A determinism contract (and the scalar-tier
// golden dump) intact while the line grouping changes with thread count
// and mode pruning.

/// Upper bound on lanes any batched path may request: the avx2 row-sweep
/// width and the widest column run c2c_stage hands one batch (a 32-lane
/// block of a length-32 f64 line is 16 KiB, inside L1). Batch scratch
/// sized with this stays valid when the active ISA is switched after
/// planning.
inline constexpr index_t kMaxLanes = 32;

/// Lanes per batched row sweep on the given ISA tier: kMaxLanes rows on
/// avx2 (eight f32 / sixteen f64 registers of lanes per twiddle
/// broadcast), a fixed 4-row block on the scalar tier, which runs
/// rfft_scratch / irfft_scratch row by row either way.
inline index_t lane_count(util::Isa isa) {
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if (isa == util::Isa::kAvx2) return kMaxLanes;
#else
  (void)isa;
#endif
  return 4;
}

namespace detail {

inline std::atomic<int>& line_batching_flag() {
  static std::atomic<int> flag = [] {
    const char* env = std::getenv("TURBFNO_FFT_BATCH");
    return (env != nullptr && env[0] == '0' && env[1] == '\0') ? 0 : 1;
  }();
  return flag;
}

}  // namespace detail

/// Whether the lane-per-line batched FFT path is active (default on; set
/// TURBFNO_FFT_BATCH=0 or call set_line_batching(false) to force one line
/// per batch — one-row sweeps of the row cores and the per-line c2c arm —
/// e.g. for baseline benchmarking).
inline bool line_batching_enabled() {
  return detail::line_batching_flag().load(std::memory_order_relaxed) != 0;
}

inline void set_line_batching(bool on) {
  detail::line_batching_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

/// RAII batching override for benches and property tests.
class ScopedLineBatching {
 public:
  explicit ScopedLineBatching(bool on) : prev_(line_batching_enabled()) {
    set_line_batching(on);
  }
  ~ScopedLineBatching() { set_line_batching(prev_); }
  ScopedLineBatching(const ScopedLineBatching&) = delete;
  ScopedLineBatching& operator=(const ScopedLineBatching&) = delete;

 private:
  bool prev_;
};

template <typename T>
class PlanC2C {
 public:
  using cpx = std::complex<T>;

  explicit PlanC2C(index_t n) : n_(n) {
    TURB_CHECK_MSG(n >= 1, "FFT length must be positive");
    if (is_pow2(n_)) {
      init_radix2();
    } else {
      init_bluestein();
    }
  }

  [[nodiscard]] index_t size() const { return n_; }

  /// In-place forward DFT (unscaled): X_k = sum_j x_j e^{-2πijk/n}.
  void forward(cpx* x) const { execute(x, /*inverse=*/false); }

  /// In-place inverse DFT (scaled by 1/n).
  void inverse(cpx* x) const { execute(x, /*inverse=*/true); }

  /// Lane-per-line batched transforms over `nlanes` independent lines,
  /// element j of lane l read from src[j*stride + l] and written to
  /// dst[j*stride + l]; stride = nlanes is a lane-interleaved block, a
  /// larger stride a run of adjacent columns. src == dst transforms in
  /// place; otherwise the bit-reversal pass copies the nlanes columns of
  /// each row from src into dst and leaves dst's other columns untouched
  /// (src and dst must not overlap). Every lane's result is bitwise
  /// identical to running forward()/inverse() on that line alone under the
  /// same ISA tier (batch occupancy invariance; see the header comment).
  /// nlanes must be in [1, kMaxLanes] and stride >= nlanes.
  void forward_batch(const cpx* src, cpx* dst, index_t nlanes,
                     index_t stride) const {
    execute_batch(src, dst, nlanes, stride, /*inverse=*/false);
  }

  void inverse_batch(const cpx* src, cpx* dst, index_t nlanes,
                     index_t stride) const {
    execute_batch(src, dst, nlanes, stride, /*inverse=*/true);
  }

  /// Does this plan execute batches through the SIMD lane kernels under
  /// the currently active ISA? When false, execute_batch just transposes to
  /// line-major and runs per lane — fft::c2c_stage then takes its per-line
  /// arm instead of transforming column runs.
  [[nodiscard]] bool batch_wants_lanes() const {
#if defined(TURBFNO_HAS_AVX2_KERNELS)
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      return sub_ == nullptr && util::active_isa() == util::Isa::kAvx2;
    }
#endif
    return false;
  }

 private:
  void init_radix2() {
    // Bit-reversal permutation table.
    bitrev_.resize(static_cast<std::size_t>(n_));
    int log2n = 0;
    while ((index_t{1} << log2n) < n_) ++log2n;
    for (index_t i = 0; i < n_; ++i) {
      index_t r = 0;
      for (int b = 0; b < log2n; ++b) {
        r |= ((i >> b) & 1) << (log2n - 1 - b);
      }
      bitrev_[static_cast<std::size_t>(i)] = r;
    }
    // Twiddle table tw[k] = exp(-2πik/n), k < n/2.
    twiddle_.resize(static_cast<std::size_t>(n_ / 2));
    for (index_t k = 0; k < n_ / 2; ++k) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n_);
      twiddle_[static_cast<std::size_t>(k)] =
          cpx(static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang)));
    }
    // Per-stage contiguous copies for the vectorized butterflies: the stage
    // with half = len/2 butterflies owns stage_tw_[half-1 .. 2·half-2],
    // stage_tw_[half-1 + j] = twiddle_[j·step] (same bits, n-1 entries
    // total). Built unconditionally so the ISA stays switchable at runtime.
    if (n_ > 1) {
      stage_tw_.resize(static_cast<std::size_t>(n_ - 1));
      for (index_t len = 2; len <= n_; len <<= 1) {
        const index_t half = len / 2;
        const index_t step = n_ / len;
        for (index_t j = 0; j < half; ++j) {
          stage_tw_[static_cast<std::size_t>(half - 1 + j)] =
              twiddle_[static_cast<std::size_t>(j * step)];
        }
      }
    }
  }

  void init_bluestein() {
    m_ = next_pow2(2 * n_ - 1);
    sub_ = std::make_unique<PlanC2C>(m_);
    chirp_.resize(static_cast<std::size_t>(n_));
    // chirp_k = exp(-iπ k²/n); reduce k² mod 2n in exact integer arithmetic
    // so the angle stays small and accurate for large n.
    for (index_t k = 0; k < n_; ++k) {
      const index_t k2 = (k * k) % (2 * n_);
      const double ang = -std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n_);
      chirp_[static_cast<std::size_t>(k)] =
          cpx(static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang)));
    }
    // bf_ = FFT_m(b) with b_k = conj(chirp_k) arranged circularly.
    bf_.assign(static_cast<std::size_t>(m_), cpx{});
    bf_[0] = std::conj(chirp_[0]);
    for (index_t k = 1; k < n_; ++k) {
      const cpx v = std::conj(chirp_[static_cast<std::size_t>(k)]);
      bf_[static_cast<std::size_t>(k)] = v;
      bf_[static_cast<std::size_t>(m_ - k)] = v;
    }
    sub_->forward(bf_.data());
  }

  void execute(cpx* x, bool inverse) const {
    if (sub_ == nullptr) {
      radix2(x, inverse);
      if (inverse) {
        const T scale = T{1} / static_cast<T>(n_);
        for (index_t i = 0; i < n_; ++i) x[i] *= scale;
      }
    } else {
      if (inverse) {
        for (index_t i = 0; i < n_; ++i) x[i] = std::conj(x[i]);
        bluestein_forward(x);
        const T scale = T{1} / static_cast<T>(n_);
        for (index_t i = 0; i < n_; ++i) x[i] = std::conj(x[i]) * scale;
      } else {
        bluestein_forward(x);
      }
    }
  }

  void radix2(cpx* x, bool inverse) const {
    // Permute.
    for (index_t i = 0; i < n_; ++i) {
      const index_t r = bitrev_[static_cast<std::size_t>(i)];
      if (i < r) std::swap(x[i], x[r]);
    }
#if defined(TURBFNO_HAS_AVX2_KERNELS)
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      if (util::active_isa() == util::Isa::kAvx2) {
        for (index_t len = 2; len <= n_; len <<= 1) {
          const index_t half = len / 2;
          avx2::radix2_stage(x, n_, len, stage_tw_.data() + (half - 1),
                             inverse);
        }
        return;
      }
    }
#endif
    // Butterflies.
    for (index_t len = 2; len <= n_; len <<= 1) {
      const index_t half = len / 2;
      const index_t step = n_ / len;
      for (index_t base = 0; base < n_; base += len) {
        for (index_t j = 0; j < half; ++j) {
          cpx w = twiddle_[static_cast<std::size_t>(j * step)];
          if (inverse) w = std::conj(w);
          const cpx u = x[base + j];
          const cpx v = x[base + j + half] * w;
          x[base + j] = u + v;
          x[base + j + half] = u - v;
        }
      }
    }
  }

  // Batched execution discipline: every floating-point rounding in the
  // batched path comes from an intrinsics lane kernel or from the
  // single-line code (execute) running on a de-interleaved copy, so a line's
  // bits cannot depend on its batch. Exact operations (copies, swaps, conj,
  // componentwise scaling) round nothing and may be written freely.
  void execute_batch(const cpx* src, cpx* dst, index_t nlanes, index_t stride,
                     bool inverse) const {
    TURB_CHECK_MSG(nlanes >= 1 && nlanes <= kMaxLanes && stride >= nlanes,
                   "batched FFT lanes " << nlanes << " / stride " << stride
                                        << " out of range");
    if (nlanes == 1 && stride == 1) {
      // A one-lane block is exactly the single-line layout.
      if (src != dst) std::copy(src, src + n_, dst);
      execute(dst, inverse);
      return;
    }
#if defined(TURBFNO_HAS_AVX2_KERNELS)
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      if (sub_ == nullptr && util::active_isa() == util::Isa::kAvx2) {
        // Permute whole lane rows (exact): swaps in place, else a permuted
        // copy of the lanes from src.
        for (index_t i = 0; i < n_; ++i) {
          const index_t r = bitrev_[static_cast<std::size_t>(i)];
          cpx* a = dst + i * stride;
          if (src != dst) {
            std::copy(src + r * stride, src + r * stride + nlanes, a);
          } else if (i < r) {
            std::swap_ranges(a, a + nlanes, dst + r * stride);
          }
        }
        // Stages in pairs (len, 2·len), each pair one pass over the rows;
        // a lone last stage when log2 n is odd.
        // Stage len's twiddles start at stage_tw_[len/2 - 1].
        const cpx* tw = stage_tw_.data();
        index_t len = 2;
        for (; 2 * len <= n_; len <<= 2) {
          avx2::radix2_pair_lanes(dst, n_, len, tw + (len / 2 - 1),
                                  tw + (len - 1), nlanes, stride, inverse);
        }
        if (len <= n_) {
          avx2::radix2_stage_lanes(dst, n_, len, tw + (len / 2 - 1), nlanes,
                                   stride, inverse);
        }
        if (inverse) {
          // Componentwise scaling is exact arithmetic-shape-wise: one
          // rounding per component, independent of vectorization.
          const T scale = T{1} / static_cast<T>(n_);
          for (index_t j = 0; j < n_; ++j) {
            cpx* row = dst + j * stride;
            for (index_t l = 0; l < nlanes; ++l) row[l] *= scale;
          }
        }
        return;
      }
    }
#endif
    // Reference fallback (scalar tier, Bluestein lengths, non-SIMD types):
    // de-interleave and run the pinned single-line path per lane. The
    // copies are exact, so equality with the single-line transform is
    // structural.
    thread_local std::vector<cpx> lines;
    lines.resize(static_cast<std::size_t>(n_ * nlanes));
    for (index_t j = 0; j < n_; ++j) {
      const cpx* row = src + j * stride;
      for (index_t l = 0; l < nlanes; ++l) lines[l * n_ + j] = row[l];
    }
    for (index_t l = 0; l < nlanes; ++l) {
      execute(lines.data() + l * n_, inverse);
    }
    for (index_t j = 0; j < n_; ++j) {
      cpx* row = dst + j * stride;
      for (index_t l = 0; l < nlanes; ++l) row[l] = lines[l * n_ + j];
    }
  }

  void bluestein_forward(cpx* x) const {
    thread_local std::vector<cpx> scratch;
    scratch.assign(static_cast<std::size_t>(m_), cpx{});
    for (index_t k = 0; k < n_; ++k) {
      scratch[static_cast<std::size_t>(k)] =
          x[k] * chirp_[static_cast<std::size_t>(k)];
    }
    sub_->forward(scratch.data());
    for (index_t k = 0; k < m_; ++k) {
      scratch[static_cast<std::size_t>(k)] *= bf_[static_cast<std::size_t>(k)];
    }
    sub_->inverse(scratch.data());
    for (index_t k = 0; k < n_; ++k) {
      x[k] = scratch[static_cast<std::size_t>(k)] *
             chirp_[static_cast<std::size_t>(k)];
    }
  }

  index_t n_;
  // Radix-2 state.
  std::vector<index_t> bitrev_;
  std::vector<cpx> twiddle_;
  std::vector<cpx> stage_tw_;  ///< per-stage contiguous copies (see init)
  // Bluestein state (null sub_ means radix-2 path).
  index_t m_ = 0;
  std::unique_ptr<PlanC2C> sub_;
  std::vector<cpx> chirp_;
  std::vector<cpx> bf_;
};

}  // namespace turb::fft
