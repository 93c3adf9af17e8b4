// The library's inner products (Dot, DotRows for the rerank, LaneDot for
// HNSW navigation), the lane order every reduction follows (LaneSum), and
// the scalar tier: plain loops that every vector tier reproduces byte for
// byte (dispatch.h).

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

// The lane order of dispatch.h: lane l (0-15) sums term(k) for k ≡ l
// (mod 16) over the whole blocks of 16 in increasing k, from +0; the lanes
// fold upper half onto lower (+8, +4, +2, +1); then term(k) for the last
// d mod 16 values of k is added to lane 0 in increasing k.
template <typename T, typename Term>
T LaneSum(size_t d, Term term) {
  constexpr size_t kLanes = 16;
  T lane[kLanes] = {};
  size_t k = 0;
  for (; k + kLanes <= d; k += kLanes) {
    // Unrolled, the lanes stay in registers.
#pragma GCC unroll 16
    for (size_t l = 0; l < kLanes; ++l) lane[l] += term(k + l);
  }
  for (size_t l = 0; l < 8; ++l) lane[l] += lane[l + 8];
  for (size_t l = 0; l < 4; ++l) lane[l] += lane[l + 4];
  for (size_t l = 0; l < 2; ++l) lane[l] += lane[l + 2];
  T sum = lane[0] + lane[1];
  for (; k < d; ++k) sum += term(k);
  return sum;
}

// One Dot per cell: Dot's chain of d dependent adds bounds it, not memory,
// so it needs no cache blocking.
void MatMulTileScalar(const float* a, size_t a_stride, size_t rows,
                      const float* b, size_t b_stride, size_t cols, size_t d,
                      float* c, size_t c_stride) {
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      c[i * c_stride + j] = Dot(a + i * a_stride, b + j * b_stride, d);
    }
  }
}

double SquaredNormScalar(const float* v, size_t d) {
  return LaneSum<double>(
      d, [v](size_t k) { return static_cast<double>(v[k]) * v[k]; });
}

float ManhattanScalar(const float* a, const float* b, size_t d) {
  return LaneSum<float>(d, [a, b](size_t k) { return std::fabs(a[k] - b[k]); });
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
  return LaneSum<double>(d, [v](size_t k) { return double{v[k]}; });
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

float LaneDot(const float* a, const float* b, size_t d) {
  return LaneSum<float>(d, [a, b](size_t k) { return a[k] * b[k]; });
}

const KernelOps* GetScalarKernels() { return &kScalarOps; }

}  // namespace entmatcher
