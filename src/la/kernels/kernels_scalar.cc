// The library's one inner product (Dot, and DotRows for the rerank), and the
// scalar reference tier. Every tier loop here is the pre-SIMD implementation
// kept verbatim — the EM_KERNEL_TIER=scalar output must stay bit-identical
// to the code it replaced, and the vector tiers are tested against these
// ops.

#include <algorithm>
#include <cmath>

#include "la/kernels/dispatch.h"

namespace entmatcher {

float Dot(const float* a, const float* b, size_t d) {
  float acc = 0.0f;
  for (size_t k = 0; k < d; ++k) acc += a[k] * b[k];
  return acc;
}

void DotRows(const float* a, const float* b, size_t b_stride,
             const uint32_t* rows, size_t count, size_t d, float* out) {
  constexpr size_t kChains = 8;
  for (size_t c = 0; c < count; c += kChains) {
    // A short last group repeats its last row; the spare sums are dropped.
    const size_t live = std::min(kChains, count - c);
    const float* group[kChains];
    for (size_t l = 0; l < kChains; ++l) {
      group[l] = b + rows[c + std::min(l, live - 1)] * b_stride;
    }
    // Dot's loop, once per row: the sums share no state.
    float acc[kChains] = {};
    for (size_t k = 0; k < d; ++k) {
      for (size_t l = 0; l < kChains; ++l) acc[l] += a[k] * group[l][k];
    }
    std::copy_n(acc, live, out + c);
  }
}

namespace {

// The original MatMulTransposedRange body: row/column blocks of 32 around the
// scalar dot. Blocking only changes cell visit order, never a cell's value,
// but it is kept anyway so the scalar tier is the old code, not merely
// equivalent to it.
void MatMulTileScalar(const float* a, size_t a_stride, size_t rows,
                      const float* b, size_t b_stride, size_t cols, size_t d,
                      float* c, size_t c_stride) {
  constexpr size_t kBlock = 32;
  for (size_t ib = 0; ib < rows; ib += kBlock) {
    const size_t i_end = std::min(rows, ib + kBlock);
    for (size_t jb = 0; jb < cols; jb += kBlock) {
      const size_t j_end = std::min(cols, jb + kBlock);
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

double SquaredNormScalar(const float* v, size_t d) {
  double sq = 0.0;
  for (size_t k = 0; k < d; ++k) sq += static_cast<double>(v[k]) * v[k];
  return sq;
}

float ManhattanScalar(const float* a, const float* b, size_t d) {
  float dist = 0.0f;
  for (size_t k = 0; k < d; ++k) dist += std::fabs(a[k] - b[k]);
  return dist;
}

void ScaleScalar(float* v, size_t d, float factor) {
  for (size_t k = 0; k < d; ++k) v[k] *= factor;
}

void ScaleCopyScalar(const float* src, float* dst, size_t d, float factor) {
  for (size_t k = 0; k < d; ++k) dst[k] = src[k] * factor;
}

void CosineScaleRowScalar(float* row, const float* inv_tgt, size_t m,
                          float si) {
  for (size_t j = 0; j < m; ++j) row[j] *= si * inv_tgt[j];
}

double SumScalar(const float* v, size_t d) {
  double sum = 0.0;
  for (size_t k = 0; k < d; ++k) sum += v[k];
  return sum;
}

float MaxScalar(const float* v, size_t d) {
  float best = v[0];
  for (size_t k = 1; k < d; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

size_t ArgmaxScalar(const float* v, size_t d) {
  size_t best = 0;
  for (size_t k = 1; k < d; ++k) {
    if (v[k] > v[best]) best = k;
  }
  return best;
}

void AccumulateMaxScalar(float* acc, const float* row, size_t d) {
  for (size_t k = 0; k < d; ++k) {
    if (row[k] > acc[k]) acc[k] = row[k];
  }
}

void AccumulateColsScalar(double* acc, const float* row, size_t d) {
  for (size_t k = 0; k < d; ++k) acc[k] += row[k];
}

void MulColsScalar(float* dst, const float* src, const double* col_inv,
                   size_t d) {
  for (size_t k = 0; k < d; ++k) {
    dst[k] = static_cast<float>(src[k] * col_inv[k]);
  }
}

uint64_t MaskGtScalarTier(const float* a, const float* b, size_t n) {
  uint64_t mask = 0;
  for (size_t k = 0; k < n; ++k) {
    if (a[k] > b[k]) mask |= uint64_t{1} << k;
  }
  return mask;
}

uint64_t MaskGtScalarScalarTier(const float* a, float threshold, size_t n) {
  uint64_t mask = 0;
  for (size_t k = 0; k < n; ++k) {
    if (a[k] > threshold) mask |= uint64_t{1} << k;
  }
  return mask;
}

const KernelOps kScalarOps = {
    /*tier=*/KernelTier::kScalar,
    /*name=*/"scalar",
    /*matmul_tile=*/MatMulTileScalar,
    /*squared_norm=*/SquaredNormScalar,
    /*manhattan=*/ManhattanScalar,
    /*scale=*/ScaleScalar,
    /*scale_copy=*/ScaleCopyScalar,
    /*cosine_scale_row=*/CosineScaleRowScalar,
    /*sum=*/SumScalar,
    /*max=*/MaxScalar,
    /*argmax=*/ArgmaxScalar,
    /*accumulate_max=*/AccumulateMaxScalar,
    /*accumulate_cols=*/AccumulateColsScalar,
    /*mul_cols=*/MulColsScalar,
    /*mask_gt=*/MaskGtScalarTier,
    /*mask_gt_scalar=*/MaskGtScalarScalarTier,
};

}  // namespace

const KernelOps* GetScalarKernels() { return &kScalarOps; }

}  // namespace entmatcher
