// NEON tier (aarch64). Compiled only when CMAKE_SYSTEM_PROCESSOR is aarch64 /
// arm64 — NEON is baseline there, so no runtime probe beyond the build gate.
// Same bit-exactness split as the x86 tiers: elementwise ops use compare+
// bit-select (never vmaxq) so NaN behaves like the scalar strict `>`;
// reductions use multiple lanes and reassociate.

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include <bit>
#include <cmath>
#include <limits>

#include "la/kernels/dispatch.h"

namespace entmatcher {
namespace {

// Shared by DotNeon and every cell of MatMulTileNeon.
inline float Dot(const float* a, const float* b, size_t d) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f);
  float32x4_t acc3 = vdupq_n_f32(0.0f);
  size_t k = 0;
  for (; k + 16 <= d; k += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + k), vld1q_f32(b + k));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + k + 4), vld1q_f32(b + k + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(a + k + 8), vld1q_f32(b + k + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(a + k + 12), vld1q_f32(b + k + 12));
  }
  for (; k + 4 <= d; k += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + k), vld1q_f32(b + k));
  }
  float r = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1),
                                 vaddq_f32(acc2, acc3)));
  for (; k < d; ++k) r += a[k] * b[k];
  return r;
}

float DotNeon(const float* a, const float* b, size_t d) { return Dot(a, b, d); }

void MatMulTileNeon(const float* a, size_t a_stride, size_t rows,
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

double SquaredNormNeon(const float* v, size_t d) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t x = vld1q_f32(v + k);
    const float64x2_t lo = vcvt_f64_f32(vget_low_f32(x));
    const float64x2_t hi = vcvt_f64_f32(vget_high_f32(x));
    acc0 = vfmaq_f64(acc0, lo, lo);
    acc1 = vfmaq_f64(acc1, hi, hi);
  }
  double r = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; k < d; ++k) r += static_cast<double>(v[k]) * v[k];
  return r;
}

float ManhattanNeon(const float* a, const float* b, size_t d) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    acc = vaddq_f32(acc, vabdq_f32(vld1q_f32(a + k), vld1q_f32(b + k)));
  }
  float r = vaddvq_f32(acc);
  for (; k < d; ++k) r += std::fabs(a[k] - b[k]);
  return r;
}

void ScaleNeon(float* v, size_t d, float factor) {
  const float32x4_t f = vdupq_n_f32(factor);
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    vst1q_f32(v + k, vmulq_f32(vld1q_f32(v + k), f));
  }
  for (; k < d; ++k) v[k] *= factor;
}

void ScaleCopyNeon(const float* src, float* dst, size_t d, float factor) {
  const float32x4_t f = vdupq_n_f32(factor);
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    vst1q_f32(dst + k, vmulq_f32(vld1q_f32(src + k), f));
  }
  for (; k < d; ++k) dst[k] = src[k] * factor;
}

void CosineScaleRowNeon(float* row, const float* inv_tgt, size_t m, float si) {
  const float32x4_t s = vdupq_n_f32(si);
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const float32x4_t t = vmulq_f32(s, vld1q_f32(inv_tgt + j));
    vst1q_f32(row + j, vmulq_f32(vld1q_f32(row + j), t));
  }
  for (; j < m; ++j) row[j] *= si * inv_tgt[j];
}

double SumNeon(const float* v, size_t d) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t x = vld1q_f32(v + k);
    acc0 = vaddq_f64(acc0, vcvt_f64_f32(vget_low_f32(x)));
    acc1 = vaddq_f64(acc1, vcvt_f64_f32(vget_high_f32(x)));
  }
  double r = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; k < d; ++k) r += v[k];
  return r;
}

float MaxNeon(const float* v, size_t d) {
  if (d < 4 || std::isnan(v[0])) {
    float best = v[0];
    for (size_t k = 1; k < d; ++k) {
      if (v[k] > best) best = v[k];
    }
    return best;
  }
  float32x4_t acc = vdupq_n_f32(-std::numeric_limits<float>::infinity());
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t chunk = vld1q_f32(v + k);
    const uint32x4_t gt = vcgtq_f32(chunk, acc);
    acc = vbslq_f32(gt, chunk, acc);
  }
  float lanes[4];
  vst1q_f32(lanes, acc);
  float best = lanes[0];
  for (int l = 1; l < 4; ++l) {
    if (lanes[l] > best) best = lanes[l];
  }
  for (; k < d; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

size_t ArgmaxNeon(const float* v, size_t d) {
  if (d < 8 || std::isnan(v[0])) {
    size_t best = 0;
    for (size_t k = 1; k < d; ++k) {
      if (v[k] > v[best]) best = k;
    }
    return best;
  }
  float32x4_t bvals = vdupq_n_f32(-std::numeric_limits<float>::infinity());
  const uint32_t init_idx[4] = {0, 1, 2, 3};
  uint32x4_t bidx = vld1q_u32(init_idx);
  uint32x4_t cur = bidx;
  const uint32x4_t step = vdupq_n_u32(4);
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t chunk = vld1q_f32(v + k);
    const uint32x4_t gt = vcgtq_f32(chunk, bvals);
    bvals = vbslq_f32(gt, chunk, bvals);
    bidx = vbslq_u32(gt, cur, bidx);
    cur = vaddq_u32(cur, step);
  }
  float lanes[4];
  uint32_t idxs[4];
  vst1q_f32(lanes, bvals);
  vst1q_u32(idxs, bidx);
  float best = lanes[0];
  size_t besti = idxs[0];
  for (int l = 1; l < 4; ++l) {
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

void AccumulateMaxNeon(float* acc, const float* row, size_t d) {
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t a = vld1q_f32(acc + k);
    const float32x4_t r = vld1q_f32(row + k);
    const uint32x4_t gt = vcgtq_f32(r, a);
    vst1q_f32(acc + k, vbslq_f32(gt, r, a));
  }
  for (; k < d; ++k) {
    if (row[k] > acc[k]) acc[k] = row[k];
  }
}

void AccumulateColsNeon(double* acc, const float* row, size_t d) {
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t r = vld1q_f32(row + k);
    vst1q_f64(acc + k,
              vaddq_f64(vld1q_f64(acc + k), vcvt_f64_f32(vget_low_f32(r))));
    vst1q_f64(acc + k + 2, vaddq_f64(vld1q_f64(acc + k + 2),
                                     vcvt_f64_f32(vget_high_f32(r))));
  }
  for (; k < d; ++k) acc[k] += row[k];
}

void MulColsNeon(float* dst, const float* src, const double* col_inv,
                 size_t d) {
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const float32x4_t s = vld1q_f32(src + k);
    const float64x2_t lo =
        vmulq_f64(vcvt_f64_f32(vget_low_f32(s)), vld1q_f64(col_inv + k));
    const float64x2_t hi =
        vmulq_f64(vcvt_f64_f32(vget_high_f32(s)), vld1q_f64(col_inv + k + 2));
    vst1q_f32(dst + k, vcombine_f32(vcvt_f32_f64(lo), vcvt_f32_f64(hi)));
  }
  for (; k < d; ++k) dst[k] = static_cast<float>(src[k] * col_inv[k]);
}

inline uint32_t LaneBits(uint32x4_t gt) {
  const uint32_t bits[4] = {1, 2, 4, 8};
  return vaddvq_u32(vandq_u32(gt, vld1q_u32(bits)));
}

uint64_t MaskGtNeon(const float* a, const float* b, size_t n) {
  uint64_t mask = 0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const uint32x4_t gt = vcgtq_f32(vld1q_f32(a + k), vld1q_f32(b + k));
    mask |= static_cast<uint64_t>(LaneBits(gt)) << k;
  }
  for (; k < n; ++k) {
    if (a[k] > b[k]) mask |= uint64_t{1} << k;
  }
  return mask;
}

uint64_t MaskGtScalarNeon(const float* a, float threshold, size_t n) {
  const float32x4_t t = vdupq_n_f32(threshold);
  uint64_t mask = 0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const uint32x4_t gt = vcgtq_f32(vld1q_f32(a + k), t);
    mask |= static_cast<uint64_t>(LaneBits(gt)) << k;
  }
  for (; k < n; ++k) {
    if (a[k] > threshold) mask |= uint64_t{1} << k;
  }
  return mask;
}

const KernelOps kNeonOps = {
    /*tier=*/KernelTier::kNeon,
    /*name=*/"neon",
    /*dot=*/DotNeon,
    /*matmul_tile=*/MatMulTileNeon,
    /*squared_norm=*/SquaredNormNeon,
    /*manhattan=*/ManhattanNeon,
    /*scale=*/ScaleNeon,
    /*scale_copy=*/ScaleCopyNeon,
    /*cosine_scale_row=*/CosineScaleRowNeon,
    /*sum=*/SumNeon,
    /*max=*/MaxNeon,
    /*argmax=*/ArgmaxNeon,
    /*accumulate_max=*/AccumulateMaxNeon,
    /*accumulate_cols=*/AccumulateColsNeon,
    /*mul_cols=*/MulColsNeon,
    /*mask_gt=*/MaskGtNeon,
    /*mask_gt_scalar=*/MaskGtScalarNeon,
};

}  // namespace

const KernelOps* GetNeonKernels() { return &kNeonOps; }

}  // namespace entmatcher

#endif  // aarch64
