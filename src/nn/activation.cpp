#include "nn/activation.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "util/avx2.hpp"
#include "util/isa.hpp"
#include "util/thread_pool.hpp"

namespace turb::nn {

namespace {

/// What gelu_tile() adds to y before the activation.
enum class Form { kPlain, kBias, kSkip };

/// The scalar tier over row[j0, cols); also the avx2 tier's row tail.
template <Form F>
void row_scalar(float* row, const float* srow, float b, index_t j0,
                index_t cols) {
  for (index_t j = j0; j < cols; ++j) {
    if constexpr (F == Form::kPlain) {
      row[j] = gelu(row[j]);
    } else if constexpr (F == Form::kBias) {
      row[j] = gelu(row[j] + b);
    } else {
      row[j] = gelu(row[j] + (srow[j] + b));
    }
  }
}

#if defined(TURBFNO_HAS_AVX2_KERNELS)

/// One Horner step, x2·acc + c, rounded after the multiply and the add.
[[gnu::target("avx2")]] inline __m256 horner(__m256 x2, __m256 acc, float c) {
  return _mm256_add_ps(_mm256_mul_ps(x2, acc), _mm256_set1_ps(c));
}

// erf_avx2() and gelu_avx2() are erf_rational() and gelu() lane for lane:
// the same multiplies, adds, divide and clamps in the same order, so every
// lane rounds like the scalar expression. No FMA: a fused multiply-add
// rounds once where the scalar tier rounds twice.
[[gnu::target("avx2")]] inline __m256 erf_avx2(__m256 x) {
  x = _mm256_max_ps(_mm256_set1_ps(-4.0f),
                    _mm256_min_ps(_mm256_set1_ps(4.0f), x));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = horner(x2, _mm256_set1_ps(-2.72614225801306e-10f),
                    2.77068142495902e-08f);
  p = horner(x2, p, -2.10102402082508e-06f);
  p = horner(x2, p, -5.69250639462346e-05f);
  p = horner(x2, p, -7.34990630326855e-04f);
  p = horner(x2, p, -2.95459980854025e-03f);
  p = horner(x2, p, -1.60960333262415e-02f);
  p = _mm256_mul_ps(x, p);
  __m256 q = horner(x2, _mm256_set1_ps(-1.45660718464996e-05f),
                    -2.13374055278905e-04f);
  q = horner(x2, q, -1.68282697438203e-03f);
  q = horner(x2, q, -7.37332916720468e-03f);
  q = horner(x2, q, -1.42647390514189e-02f);
  return _mm256_div_ps(p, q);
}

[[gnu::target("avx2")]] inline __m256 gelu_avx2(__m256 x) {
  const __m256 e =
      erf_avx2(_mm256_mul_ps(x, _mm256_set1_ps(0.70710678118654752f)));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

template <Form F>
[[gnu::target("avx2")]] void tile_avx2(float* y, index_t rows, index_t cols,
                                       index_t ld, const float* bias,
                                       const float* skip, index_t ld_skip) {
  for (index_t r = 0; r < rows; ++r) {
    float* row = y + r * ld;
    const float* srow = F == Form::kSkip ? skip + r * ld_skip : nullptr;
    const float b = F == Form::kPlain ? 0.0f : bias[r];
    const __m256 vb = _mm256_set1_ps(b);
    index_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      __m256 v = _mm256_loadu_ps(row + j);
      if constexpr (F == Form::kBias) {
        v = _mm256_add_ps(v, vb);
      } else if constexpr (F == Form::kSkip) {
        v = _mm256_add_ps(v, _mm256_add_ps(_mm256_loadu_ps(srow + j), vb));
      }
      _mm256_storeu_ps(row + j, gelu_avx2(v));
    }
    row_scalar<F>(row, srow, b, j, cols);
  }
}

#endif  // TURBFNO_HAS_AVX2_KERNELS

/// Runs one tier over the tile and counts it where it runs, so the
/// counters show which loop ran even though both give the same bits.
template <Form F>
void tile(util::Isa isa, float* y, index_t rows, index_t cols, index_t ld,
          const float* bias, const float* skip, index_t ld_skip) {
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if (isa == util::Isa::kAvx2) {
    util::gelu_dispatch_counter(util::Isa::kAvx2).add();
    tile_avx2<F>(y, rows, cols, ld, bias, skip, ld_skip);
    return;
  }
#endif
  (void)isa;
  util::gelu_dispatch_counter(util::Isa::kScalar).add();
  for (index_t r = 0; r < rows; ++r) {
    row_scalar<F>(y + r * ld, F == Form::kSkip ? skip + r * ld_skip : nullptr,
                  F == Form::kPlain ? 0.0f : bias[r], 0, cols);
  }
}

}  // namespace

void gelu_tile(float* y, index_t rows, index_t cols, index_t ld,
               const float* bias, const float* skip, index_t ld_skip) {
  TURB_CHECK_MSG(skip == nullptr || bias != nullptr,
                 "gelu_tile: the skip form needs a bias");
  const util::Isa isa = util::active_isa();
  if (bias == nullptr) {
    tile<Form::kPlain>(isa, y, rows, cols, ld, bias, skip, ld_skip);
  } else if (skip == nullptr) {
    tile<Form::kBias>(isa, y, rows, cols, ld, bias, skip, ld_skip);
  } else {
    tile<Form::kSkip>(isa, y, rows, cols, ld, bias, skip, ld_skip);
  }
}

TensorF Gelu::forward(const TensorF& x) {
  TURB_TRACE_SCOPE("nn/gelu_fwd");
  input_ = x;
  TensorF y = x;
  float* out = y.data();
  parallel_for_chunked(0, y.size(), [&](index_t b, index_t e) {
    gelu_tile(out + b, 1, e - b, e - b);
  });
  return y;
}

TensorF Gelu::backward(const TensorF& grad_out) {
  TURB_TRACE_SCOPE("nn/gelu_bwd");
  TURB_CHECK(grad_out.size() == input_.size());
  TensorF grad_in(input_.shape());
  const float* in = input_.data();
  const float* g = grad_out.data();
  float* out = grad_in.data();
  parallel_for_chunked(0, input_.size(), [&](index_t b, index_t e) {
    constexpr float inv_sqrt2 = 0.70710678118654752f;
    constexpr float inv_sqrt2pi = 0.39894228040143268f;
    for (index_t i = b; i < e; ++i) {
      const float v = in[i];
      const float phi = std::exp(-0.5f * v * v) * inv_sqrt2pi;       // pdf
      const float cdf = 0.5f * (1.0f + erf_rational(v * inv_sqrt2));  // cdf
      out[i] = g[i] * (cdf + v * phi);
    }
  });
  return grad_in;
}

}  // namespace turb::nn
