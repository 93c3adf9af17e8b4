#include "la/similarity.h"

#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "la/kernels/dispatch.h"

namespace entmatcher {

namespace {

// 1 / ||row|| for every row; zero rows get 1.0 so they pass through the
// cosine scaling unchanged (their dot products are all zero anyway), which
// matches L2NormalizeRows leaving zero rows untouched.
std::vector<float> InverseRowNorms(const Matrix& m) {
  const KernelOps& ops = ActiveKernels();
  const size_t d = m.cols();
  std::vector<float> inv(m.rows());
  ParallelFor(0, m.rows(), 64, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const double sq = ops.squared_norm(m.Row(r).data(), d);
      inv[r] = sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(sq)) : 1.0f;
    }
  });
  return inv;
}

// ||row||^2 in double precision (the Euclidean kernel accumulates in double).
std::vector<double> SquaredRowNorms(const Matrix& m) {
  const KernelOps& ops = ActiveKernels();
  const size_t d = m.cols();
  std::vector<double> sq(m.rows(), 0.0);
  ParallelFor(0, m.rows(), 64, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      sq[r] = ops.squared_norm(m.Row(r).data(), d);
    }
  });
  return sq;
}

// Scales the raw dot products by both inverse norms instead of normalizing
// copies of the inputs: saves two full embedding-matrix copies and two
// normalization passes. The inner loop lives in the kernel layer
// (cosine_scale_row), which takes the column count by value — the old code
// re-read `out->cols()` through the pointer every iteration, which the
// compiler could not hoist past the row-pointer stores.
Status CosineSimilarityRange(const Matrix& source, const Matrix& target,
                             const SimilarityCache& cache, size_t row_begin,
                             size_t row_end, Matrix* out) {
  EM_RETURN_NOT_OK(
      MatMulTransposedRange(source, target, row_begin, row_end, out));
  const std::vector<float>& inv_src = cache.inv_source_norms;
  const float* inv_tgt = cache.inv_target_norms.data();
  const size_t m = out->cols();
  const KernelOps& ops = ActiveKernels();
  ParallelFor(0, out->rows(), 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ops.cosine_scale_row(out->Row(i).data(), inv_tgt, m,
                           inv_src[row_begin + i]);
    }
  });
  return Status::OK();
}

// ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b ; score = -||a - b||.
Status NegEuclideanRange(const Matrix& source, const Matrix& target,
                         const SimilarityCache& cache, size_t row_begin,
                         size_t row_end, Matrix* out) {
  EM_RETURN_NOT_OK(
      MatMulTransposedRange(source, target, row_begin, row_end, out));
  const std::vector<double>& src_sq = cache.source_sq_norms;
  const std::vector<double>& tgt_sq = cache.target_sq_norms;
  ParallelFor(0, out->rows(), 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      float* row = out->Row(i).data();
      for (size_t j = 0; j < out->cols(); ++j) {
        double sq = src_sq[row_begin + i] + tgt_sq[j] - 2.0 * row[j];
        if (sq < 0.0) sq = 0.0;  // numeric guard
        row[j] = -static_cast<float>(std::sqrt(sq));
      }
    }
  });
  return Status::OK();
}

Status NegManhattanRange(const Matrix& source, const Matrix& target,
                         size_t row_begin, size_t row_end, Matrix* out) {
  const size_t count = row_end - row_begin;
  const size_t m = target.rows();
  const size_t d = source.cols();
  const KernelOps& ops = ActiveKernels();
  ParallelFor(0, count, 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const float* a = source.Row(row_begin + i).data();
      float* row = out->Row(i).data();
      for (size_t j = 0; j < m; ++j) {
        row[j] = -ops.manhattan(a, target.Row(j).data(), d);
      }
    }
  });
  return Status::OK();
}

Status ValidateSimilarityInputs(const Matrix& source, const Matrix& target) {
  if (source.rows() == 0 || target.rows() == 0) {
    return Status::InvalidArgument("ComputeSimilarity: empty embedding matrix");
  }
  if (source.cols() != target.cols()) {
    return Status::InvalidArgument(
        "ComputeSimilarity: embedding dimensions differ");
  }
  return Status::OK();
}

}  // namespace

const char* SimilarityMetricName(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kCosine:
      return "cosine";
    case SimilarityMetric::kNegEuclidean:
      return "euclidean";
    case SimilarityMetric::kNegManhattan:
      return "manhattan";
  }
  return "?";
}

SimilarityCache BuildSimilarityCache(const Matrix& source, const Matrix& target,
                                     SimilarityMetric metric) {
  SimilarityCache cache;
  switch (metric) {
    case SimilarityMetric::kCosine:
      cache.inv_source_norms = InverseRowNorms(source);
      cache.inv_target_norms = InverseRowNorms(target);
      break;
    case SimilarityMetric::kNegEuclidean:
      cache.source_sq_norms = SquaredRowNorms(source);
      cache.target_sq_norms = SquaredRowNorms(target);
      break;
    case SimilarityMetric::kNegManhattan:
      break;  // direct kernel, no reusable statistics
  }
  return cache;
}

Status ComputeSimilarityRange(const Matrix& source, const Matrix& target,
                              SimilarityMetric metric,
                              const SimilarityCache& cache, size_t row_begin,
                              size_t row_end, Matrix* out) {
  EM_RETURN_NOT_OK(ValidateSimilarityInputs(source, target));
  if (row_begin > row_end || row_end > source.rows()) {
    return Status::OutOfRange("ComputeSimilarityRange: bad row range");
  }
  if (out->rows() != row_end - row_begin || out->cols() != target.rows()) {
    return Status::InvalidArgument(
        "ComputeSimilarityRange: output shape mismatch");
  }
  switch (metric) {
    case SimilarityMetric::kCosine:
      if (cache.inv_source_norms.size() != source.rows() ||
          cache.inv_target_norms.size() != target.rows()) {
        return Status::InvalidArgument(
            "ComputeSimilarityRange: cache not built for cosine");
      }
      return CosineSimilarityRange(source, target, cache, row_begin, row_end,
                                   out);
    case SimilarityMetric::kNegEuclidean:
      if (cache.source_sq_norms.size() != source.rows() ||
          cache.target_sq_norms.size() != target.rows()) {
        return Status::InvalidArgument(
            "ComputeSimilarityRange: cache not built for euclidean");
      }
      return NegEuclideanRange(source, target, cache, row_begin, row_end, out);
    case SimilarityMetric::kNegManhattan:
      return NegManhattanRange(source, target, row_begin, row_end, out);
  }
  return Status::InvalidArgument("ComputeSimilarity: unknown metric");
}

void PairSimilarities(const Matrix& source, const Matrix& target, size_t i,
                      std::span<const uint32_t> cols, SimilarityMetric metric,
                      const SimilarityCache& cache, float* out) {
  const float* a = source.Row(i).data();
  const size_t d = source.cols();
  if (metric == SimilarityMetric::kNegManhattan) {
    const KernelOps& ops = ActiveKernels();
    for (size_t e = 0; e < cols.size(); ++e) {
      out[e] = -ops.manhattan(a, target.Row(cols[e]).data(), d);
    }
    return;
  }
  // DotRows sums each product in Dot's order, which is the order of every
  // dense matmul cell at every tier; the rest replays the dense post-pass.
  DotRows(a, target.data(), target.cols(), cols.data(), cols.size(), d, out);
  for (size_t e = 0; e < cols.size(); ++e) {
    const size_t j = cols[e];
    if (metric == SimilarityMetric::kCosine) {
      // The dense `row[j] *= si * inv_tgt[j]`: the two inverse norms are
      // multiplied together first.
      out[e] *= cache.inv_source_norms[i] * cache.inv_target_norms[j];
    } else {
      double sq =
          cache.source_sq_norms[i] + cache.target_sq_norms[j] - 2.0 * out[e];
      if (sq < 0.0) sq = 0.0;  // numeric guard
      out[e] = -static_cast<float>(std::sqrt(sq));
    }
  }
}

Result<Matrix> ComputeSimilarity(const Matrix& source, const Matrix& target,
                                 SimilarityMetric metric) {
  EM_RETURN_NOT_OK(ValidateSimilarityInputs(source, target));
  const SimilarityCache cache = BuildSimilarityCache(source, target, metric);
  Matrix out(source.rows(), target.rows());
  EM_RETURN_NOT_OK(ComputeSimilarityRange(source, target, metric, cache, 0,
                                          source.rows(), &out));
  return out;
}

}  // namespace entmatcher
