// AVX2+FMA tier. Compiled with -mavx2 -mfma in its own translation unit; only
// dispatch.cc calls GetAvx2Kernels(), and only after the CPU probe confirms
// the ISA, so no AVX2 instruction can execute on an unsupported machine.
//
// Elementwise ops perform exactly the scalar tier's arithmetic per element
// (no FMA contraction where the scalar code had separate mul/add, compares
// are ordered non-signaling so NaN behaves like the scalar `>`), which keeps
// them bit-identical to scalar. Reductions (dot, squared_norm, sum,
// manhattan) use multiple lanes and so reassociate; they are deterministic
// per shape but only tolerance-equal to scalar.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "la/kernels/dispatch.h"

namespace entmatcher {
namespace {

float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

double HorizontalSumPd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// Shared by DotAvx2 and every cell of MatMulTileAvx2: the accumulation
// sequence is a pure function of d, which is what makes the sparse rerank
// (PairSimilarity) bit-identical to the dense matmul cells at this tier.
inline float Dot(const float* a, const float* b, size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t k = 0;
  for (; k + 32 <= d; k += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + k + 8),
                           _mm256_loadu_ps(b + k + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + k + 16),
                           _mm256_loadu_ps(b + k + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + k + 24),
                           _mm256_loadu_ps(b + k + 24), acc3);
  }
  for (; k + 8 <= d; k += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k),
                           acc0);
  }
  const __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                   _mm256_add_ps(acc2, acc3));
  float r = HorizontalSum(acc);
  for (; k < d; ++k) r += a[k] * b[k];
  return r;
}

float DotAvx2(const float* a, const float* b, size_t d) { return Dot(a, b, d); }

void MatMulTileAvx2(const float* a, size_t a_stride, size_t rows,
                    const float* b, size_t b_stride, size_t cols, size_t d,
                    float* c, size_t c_stride) {
  // Same 32-wide blocking as the scalar tier so B rows stay hot in L1 while
  // a block of A rows streams over them; each cell is one Dot call.
  constexpr size_t kBlock = 32;
  for (size_t ib = 0; ib < rows; ib += kBlock) {
    const size_t i_end = ib + kBlock < rows ? ib + kBlock : rows;
    for (size_t jb = 0; jb < cols; jb += kBlock) {
      const size_t j_end = jb + kBlock < cols ? jb + kBlock : cols;
      for (size_t i = ib; i < i_end; ++i) {
        const float* arow = a + i * a_stride;
        float* crow = c + i * c_stride;
        for (size_t j = jb; j < j_end; ++j) {
          crow[j] = Dot(arow, b + j * b_stride, d);
        }
      }
    }
  }
}

double SquaredNormAvx2(const float* v, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(v + k));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(v + k + 4));
    acc0 = _mm256_fmadd_pd(x0, x0, acc0);
    acc1 = _mm256_fmadd_pd(x1, x1, acc1);
  }
  double r = HorizontalSumPd(_mm256_add_pd(acc0, acc1));
  for (; k < d; ++k) r += static_cast<double>(v[k]) * v[k];
  return r;
}

float ManhattanAvx2(const float* a, const float* b, size_t d) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + k),
                                    _mm256_loadu_ps(b + k));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + k + 8),
                                    _mm256_loadu_ps(b + k + 8));
    acc0 = _mm256_add_ps(acc0, _mm256_and_ps(d0, abs_mask));
    acc1 = _mm256_add_ps(acc1, _mm256_and_ps(d1, abs_mask));
  }
  for (; k + 8 <= d; k += 8) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + k),
                                    _mm256_loadu_ps(b + k));
    acc0 = _mm256_add_ps(acc0, _mm256_and_ps(d0, abs_mask));
  }
  float r = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; k < d; ++k) r += std::fabs(a[k] - b[k]);
  return r;
}

void ScaleAvx2(float* v, size_t d, float factor) {
  const __m256 f = _mm256_set1_ps(factor);
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    _mm256_storeu_ps(v + k, _mm256_mul_ps(_mm256_loadu_ps(v + k), f));
  }
  for (; k < d; ++k) v[k] *= factor;
}

void ScaleCopyAvx2(const float* src, float* dst, size_t d, float factor) {
  const __m256 f = _mm256_set1_ps(factor);
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    _mm256_storeu_ps(dst + k, _mm256_mul_ps(_mm256_loadu_ps(src + k), f));
  }
  for (; k < d; ++k) dst[k] = src[k] * factor;
}

void CosineScaleRowAvx2(float* row, const float* inv_tgt, size_t m, float si) {
  // row[j] * (si * inv_tgt[j]) with two separate multiplies, matching the
  // scalar tier's rounding exactly (no FMA contraction).
  const __m256 s = _mm256_set1_ps(si);
  size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m256 t = _mm256_mul_ps(s, _mm256_loadu_ps(inv_tgt + j));
    _mm256_storeu_ps(row + j, _mm256_mul_ps(_mm256_loadu_ps(row + j), t));
  }
  for (; j < m; ++j) row[j] *= si * inv_tgt[j];
}

double SumAvx2(const float* v, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm_loadu_ps(v + k)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm_loadu_ps(v + k + 4)));
  }
  double r = HorizontalSumPd(_mm256_add_pd(acc0, acc1));
  for (; k < d; ++k) r += v[k];
  return r;
}

float MaxAvx2(const float* v, size_t d) {
  if (d < 8 || std::isnan(v[0])) {
    float best = v[0];
    for (size_t k = 1; k < d; ++k) {
      if (v[k] > best) best = v[k];
    }
    return best;
  }
  // cmp+blend (not max_ps) so NaN elements are rejected exactly like the
  // scalar strict `>`.
  __m256 acc = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 chunk = _mm256_loadu_ps(v + k);
    const __m256 gt = _mm256_cmp_ps(chunk, acc, _CMP_GT_OQ);
    acc = _mm256_blendv_ps(acc, chunk, gt);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float best = lanes[0];
  for (int l = 1; l < 8; ++l) {
    if (lanes[l] > best) best = lanes[l];
  }
  for (; k < d; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

size_t ArgmaxAvx2(const float* v, size_t d) {
  if (d < 16 || std::isnan(v[0])) {
    size_t best = 0;
    for (size_t k = 1; k < d; ++k) {
      if (v[k] > v[best]) best = k;
    }
    return best;
  }
  // Lane l tracks the best value among indices ≡ l (mod 8) and, because the
  // compare is strict, the FIRST index attaining it; the horizontal pass
  // breaks cross-lane ties toward the lower index, matching scalar exactly.
  __m256 bvals = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256i bidx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i cur = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 chunk = _mm256_loadu_ps(v + k);
    const __m256 gt = _mm256_cmp_ps(chunk, bvals, _CMP_GT_OQ);
    bvals = _mm256_blendv_ps(bvals, chunk, gt);
    bidx = _mm256_blendv_epi8(bidx, cur, _mm256_castps_si256(gt));
    cur = _mm256_add_epi32(cur, step);
  }
  alignas(32) float lanes[8];
  alignas(32) uint32_t idxs[8];
  _mm256_store_ps(lanes, bvals);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), bidx);
  float best = lanes[0];
  size_t besti = idxs[0];
  for (int l = 1; l < 8; ++l) {
    if (lanes[l] > best || (lanes[l] == best && idxs[l] < besti)) {
      best = lanes[l];
      besti = idxs[l];
    }
  }
  for (; k < d; ++k) {
    if (v[k] > best) {
      best = v[k];
      besti = k;
    }
  }
  return besti;
}

void AccumulateMaxAvx2(float* acc, const float* row, size_t d) {
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 a = _mm256_loadu_ps(acc + k);
    const __m256 r = _mm256_loadu_ps(row + k);
    const __m256 gt = _mm256_cmp_ps(r, a, _CMP_GT_OQ);
    _mm256_storeu_ps(acc + k, _mm256_blendv_ps(a, r, gt));
  }
  for (; k < d; ++k) {
    if (row[k] > acc[k]) acc[k] = row[k];
  }
}

void AccumulateColsAvx2(double* acc, const float* row, size_t d) {
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const __m256d a = _mm256_loadu_pd(acc + k);
    const __m256d r = _mm256_cvtps_pd(_mm_loadu_ps(row + k));
    _mm256_storeu_pd(acc + k, _mm256_add_pd(a, r));
  }
  for (; k < d; ++k) acc[k] += row[k];
}

void MulColsAvx2(float* dst, const float* src, const double* col_inv,
                 size_t d) {
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const __m256d s = _mm256_cvtps_pd(_mm_loadu_ps(src + k));
    const __m256d p = _mm256_mul_pd(s, _mm256_loadu_pd(col_inv + k));
    _mm_storeu_ps(dst + k, _mm256_cvtpd_ps(p));
  }
  for (; k < d; ++k) dst[k] = static_cast<float>(src[k] * col_inv[k]);
}

uint64_t MaskGtAvx2(const float* a, const float* b, size_t n) {
  uint64_t mask = 0;
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(a + k),
                                    _mm256_loadu_ps(b + k), _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(
                static_cast<uint32_t>(_mm256_movemask_ps(gt)))
            << k;
  }
  for (; k < n; ++k) {
    if (a[k] > b[k]) mask |= uint64_t{1} << k;
  }
  return mask;
}

uint64_t MaskGtScalarAvx2(const float* a, float threshold, size_t n) {
  const __m256 t = _mm256_set1_ps(threshold);
  uint64_t mask = 0;
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(a + k), t, _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(
                static_cast<uint32_t>(_mm256_movemask_ps(gt)))
            << k;
  }
  for (; k < n; ++k) {
    if (a[k] > threshold) mask |= uint64_t{1} << k;
  }
  return mask;
}

const KernelOps kAvx2Ops = {
    /*tier=*/KernelTier::kAvx2,
    /*name=*/"avx2",
    /*dot=*/DotAvx2,
    /*matmul_tile=*/MatMulTileAvx2,
    /*squared_norm=*/SquaredNormAvx2,
    /*manhattan=*/ManhattanAvx2,
    /*scale=*/ScaleAvx2,
    /*scale_copy=*/ScaleCopyAvx2,
    /*cosine_scale_row=*/CosineScaleRowAvx2,
    /*sum=*/SumAvx2,
    /*max=*/MaxAvx2,
    /*argmax=*/ArgmaxAvx2,
    /*accumulate_max=*/AccumulateMaxAvx2,
    /*accumulate_cols=*/AccumulateColsAvx2,
    /*mul_cols=*/MulColsAvx2,
    /*mask_gt=*/MaskGtAvx2,
    /*mask_gt_scalar=*/MaskGtScalarAvx2,
};

}  // namespace

const KernelOps* GetAvx2Kernels() { return &kAvx2Ops; }

}  // namespace entmatcher

#endif  // x86_64
