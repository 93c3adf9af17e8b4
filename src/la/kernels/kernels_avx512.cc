// AVX-512 tier (requires F+BW+DQ+VL). Compiled with its own -m flags; only
// dispatch.cc calls GetAvx512Kernels(), after the CPU probe. Lane masks make
// the tails branch-free: masked-off lanes load as +0.0f, and 0*0+acc == acc
// exactly, so folding a masked FMA into an accumulator is a no-op for dead
// lanes. The same bit-exactness split as the AVX2 tier applies: elementwise
// ops are identical to scalar per element, reductions reassociate.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "la/kernels/dispatch.h"

namespace entmatcher {
namespace {

inline __mmask16 TailMask16(size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

inline __mmask8 TailMask8(size_t remaining) {
  return static_cast<__mmask8>((1u << remaining) - 1u);
}

// Shared by DotAvx512 and every cell of MatMulTileAvx512 (sparse rerank ==
// dense cell bit-identity at this tier, same as the other tiers).
inline float Dot(const float* a, const float* b, size_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  size_t k = 0;
  for (; k + 64 <= d; k += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + k), _mm512_loadu_ps(b + k),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + k + 16),
                           _mm512_loadu_ps(b + k + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + k + 32),
                           _mm512_loadu_ps(b + k + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + k + 48),
                           _mm512_loadu_ps(b + k + 48), acc3);
  }
  for (; k + 16 <= d; k += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + k), _mm512_loadu_ps(b + k),
                           acc0);
  }
  if (k < d) {
    const __mmask16 m = TailMask16(d - k);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + k),
                           _mm512_maskz_loadu_ps(m, b + k), acc1);
  }
  return _mm512_reduce_add_ps(
      _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3)));
}

float DotAvx512(const float* a, const float* b, size_t d) {
  return Dot(a, b, d);
}

void MatMulTileAvx512(const float* a, size_t a_stride, size_t rows,
                      const float* b, size_t b_stride, size_t cols, size_t d,
                      float* c, size_t c_stride) {
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

double SquaredNormAvx512(const float* v, size_t d) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512d x0 = _mm512_cvtps_pd(_mm256_loadu_ps(v + k));
    const __m512d x1 = _mm512_cvtps_pd(_mm256_loadu_ps(v + k + 8));
    acc0 = _mm512_fmadd_pd(x0, x0, acc0);
    acc1 = _mm512_fmadd_pd(x1, x1, acc1);
  }
  double r = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; k < d; ++k) r += static_cast<double>(v[k]) * v[k];
  return r;
}

float ManhattanAvx512(const float* a, const float* b, size_t d) {
  __m512 acc = _mm512_setzero_ps();
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 diff = _mm512_sub_ps(_mm512_loadu_ps(a + k),
                                      _mm512_loadu_ps(b + k));
    acc = _mm512_add_ps(acc, _mm512_abs_ps(diff));
  }
  if (k < d) {
    const __mmask16 m = TailMask16(d - k);
    const __m512 diff = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + k),
                                      _mm512_maskz_loadu_ps(m, b + k));
    acc = _mm512_add_ps(acc, _mm512_abs_ps(diff));
  }
  return _mm512_reduce_add_ps(acc);
}

void ScaleAvx512(float* v, size_t d, float factor) {
  const __m512 f = _mm512_set1_ps(factor);
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    _mm512_storeu_ps(v + k, _mm512_mul_ps(_mm512_loadu_ps(v + k), f));
  }
  if (k < d) {
    const __mmask16 m = TailMask16(d - k);
    _mm512_mask_storeu_ps(
        v + k, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, v + k), f));
  }
}

void ScaleCopyAvx512(const float* src, float* dst, size_t d, float factor) {
  const __m512 f = _mm512_set1_ps(factor);
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    _mm512_storeu_ps(dst + k, _mm512_mul_ps(_mm512_loadu_ps(src + k), f));
  }
  if (k < d) {
    const __mmask16 m = TailMask16(d - k);
    _mm512_mask_storeu_ps(
        dst + k, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, src + k), f));
  }
}

void CosineScaleRowAvx512(float* row, const float* inv_tgt, size_t m,
                          float si) {
  // Two separate multiplies (no FMA): identical rounding to the scalar tier.
  const __m512 s = _mm512_set1_ps(si);
  size_t j = 0;
  for (; j + 16 <= m; j += 16) {
    const __m512 t = _mm512_mul_ps(s, _mm512_loadu_ps(inv_tgt + j));
    _mm512_storeu_ps(row + j, _mm512_mul_ps(_mm512_loadu_ps(row + j), t));
  }
  if (j < m) {
    const __mmask16 mask = TailMask16(m - j);
    const __m512 t = _mm512_mul_ps(s, _mm512_maskz_loadu_ps(mask, inv_tgt + j));
    _mm512_mask_storeu_ps(
        row + j, mask,
        _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, row + j), t));
  }
}

double SumAvx512(const float* v, size_t d) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    acc0 = _mm512_add_pd(acc0, _mm512_cvtps_pd(_mm256_loadu_ps(v + k)));
    acc1 = _mm512_add_pd(acc1, _mm512_cvtps_pd(_mm256_loadu_ps(v + k + 8)));
  }
  double r = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; k < d; ++k) r += v[k];
  return r;
}

float MaxAvx512(const float* v, size_t d) {
  if (d < 16 || std::isnan(v[0])) {
    float best = v[0];
    for (size_t k = 1; k < d; ++k) {
      if (v[k] > best) best = v[k];
    }
    return best;
  }
  // Masked compare+move rejects NaN elements like the scalar strict `>`.
  __m512 acc = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 chunk = _mm512_loadu_ps(v + k);
    const __mmask16 gt = _mm512_cmp_ps_mask(chunk, acc, _CMP_GT_OQ);
    acc = _mm512_mask_mov_ps(acc, gt, chunk);
  }
  float best = _mm512_reduce_max_ps(acc);  // acc is NaN-free by construction
  for (; k < d; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

size_t ArgmaxAvx512(const float* v, size_t d) {
  if (d < 32 || std::isnan(v[0])) {
    size_t best = 0;
    for (size_t k = 1; k < d; ++k) {
      if (v[k] > v[best]) best = k;
    }
    return best;
  }
  __m512 bvals = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  __m512i bidx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  __m512i cur = bidx;
  const __m512i step = _mm512_set1_epi32(16);
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 chunk = _mm512_loadu_ps(v + k);
    const __mmask16 gt = _mm512_cmp_ps_mask(chunk, bvals, _CMP_GT_OQ);
    bvals = _mm512_mask_mov_ps(bvals, gt, chunk);
    bidx = _mm512_mask_mov_epi32(bidx, gt, cur);
    cur = _mm512_add_epi32(cur, step);
  }
  alignas(64) float lanes[16];
  alignas(64) uint32_t idxs[16];
  _mm512_store_ps(lanes, bvals);
  _mm512_store_si512(idxs, bidx);
  float best = lanes[0];
  size_t besti = idxs[0];
  for (int l = 1; l < 16; ++l) {
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

void AccumulateMaxAvx512(float* acc, const float* row, size_t d) {
  for (size_t k = 0; k < d; k += 16) {
    const __mmask16 lane = d - k >= 16 ? static_cast<__mmask16>(0xFFFF)
                                       : TailMask16(d - k);
    const __m512 r = _mm512_maskz_loadu_ps(lane, row + k);
    const __m512 a = _mm512_maskz_loadu_ps(lane, acc + k);
    const __mmask16 gt = _mm512_mask_cmp_ps_mask(lane, r, a, _CMP_GT_OQ);
    _mm512_mask_storeu_ps(acc + k, gt, r);
  }
}

void AccumulateColsAvx512(double* acc, const float* row, size_t d) {
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m512d a = _mm512_loadu_pd(acc + k);
    const __m512d r = _mm512_cvtps_pd(_mm256_loadu_ps(row + k));
    _mm512_storeu_pd(acc + k, _mm512_add_pd(a, r));
  }
  if (k < d) {
    const __mmask8 m = TailMask8(d - k);
    const __m512d a = _mm512_maskz_loadu_pd(m, acc + k);
    const __m512d r =
        _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, row + k));
    _mm512_mask_storeu_pd(acc + k, m, _mm512_add_pd(a, r));
  }
}

void MulColsAvx512(float* dst, const float* src, const double* col_inv,
                   size_t d) {
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m512d s = _mm512_cvtps_pd(_mm256_loadu_ps(src + k));
    const __m512d p = _mm512_mul_pd(s, _mm512_loadu_pd(col_inv + k));
    _mm256_storeu_ps(dst + k, _mm512_cvtpd_ps(p));
  }
  if (k < d) {
    const __mmask8 m = TailMask8(d - k);
    const __m512d s = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, src + k));
    const __m512d p = _mm512_mul_pd(s, _mm512_maskz_loadu_pd(m, col_inv + k));
    _mm256_mask_storeu_ps(dst + k, m, _mm512_cvtpd_ps(p));
  }
}

uint64_t MaskGtAvx512(const float* a, const float* b, size_t n) {
  uint64_t mask = 0;
  for (size_t k = 0; k < n; k += 16) {
    const __mmask16 lane = n - k >= 16 ? static_cast<__mmask16>(0xFFFF)
                                       : TailMask16(n - k);
    const __mmask16 gt = _mm512_mask_cmp_ps_mask(
        lane, _mm512_maskz_loadu_ps(lane, a + k),
        _mm512_maskz_loadu_ps(lane, b + k), _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(static_cast<uint16_t>(gt)) << k;
  }
  return mask;
}

uint64_t MaskGtScalarAvx512(const float* a, float threshold, size_t n) {
  const __m512 t = _mm512_set1_ps(threshold);
  uint64_t mask = 0;
  for (size_t k = 0; k < n; k += 16) {
    const __mmask16 lane = n - k >= 16 ? static_cast<__mmask16>(0xFFFF)
                                       : TailMask16(n - k);
    const __mmask16 gt = _mm512_mask_cmp_ps_mask(
        lane, _mm512_maskz_loadu_ps(lane, a + k), t, _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(static_cast<uint16_t>(gt)) << k;
  }
  return mask;
}

const KernelOps kAvx512Ops = {
    /*tier=*/KernelTier::kAvx512,
    /*name=*/"avx512",
    /*dot=*/DotAvx512,
    /*matmul_tile=*/MatMulTileAvx512,
    /*squared_norm=*/SquaredNormAvx512,
    /*manhattan=*/ManhattanAvx512,
    /*scale=*/ScaleAvx512,
    /*scale_copy=*/ScaleCopyAvx512,
    /*cosine_scale_row=*/CosineScaleRowAvx512,
    /*sum=*/SumAvx512,
    /*max=*/MaxAvx512,
    /*argmax=*/ArgmaxAvx512,
    /*accumulate_max=*/AccumulateMaxAvx512,
    /*accumulate_cols=*/AccumulateColsAvx512,
    /*mul_cols=*/MulColsAvx512,
    /*mask_gt=*/MaskGtAvx512,
    /*mask_gt_scalar=*/MaskGtScalarAvx512,
};

}  // namespace

const KernelOps* GetAvx512Kernels() { return &kAvx512Ops; }

}  // namespace entmatcher

#endif  // x86_64
