#include "matching/streaming.h"

#include <algorithm>
#include <span>

#include "la/topk.h"
#include "la/workspace.h"

namespace entmatcher {

Result<Assignment> StreamingMatch(const Matrix& source, const Matrix& target,
                                  const StreamingOptions& options) {
  if (source.rows() == 0 || target.rows() == 0) {
    return Status::InvalidArgument("StreamingMatch: empty embeddings");
  }
  if (source.cols() != target.cols()) {
    return Status::InvalidArgument("StreamingMatch: embedding dims differ");
  }
  if (options.block_rows == 0) {
    return Status::InvalidArgument("StreamingMatch: block_rows must be >= 1");
  }
  if (options.use_csls && options.csls_k == 0) {
    return Status::InvalidArgument("StreamingMatch: csls_k must be >= 1");
  }
  const size_t n = source.rows();
  const size_t m = target.rows();
  const size_t block = options.block_rows;

  // Per-row statistics are built once and sliced per tile; tiles are scored
  // straight from the source rows (no block copy) into a small arena buffer
  // recycled across the sweep. Identical per-element arithmetic to the dense
  // kernel keeps decisions bit-identical to the dense pipeline.
  const SimilarityCache cache =
      BuildSimilarityCache(source, target, options.metric);
  Workspace workspace(options.workspace_budget_bytes);

  std::vector<float> phi_s;
  std::vector<float> phi_t;
  if (options.use_csls) {
    // Pass 1: accumulate the CSLS statistics blockwise.
    const size_t k_rows = std::min(options.csls_k, m);
    const size_t k_cols = std::min(options.csls_k, n);
    phi_s.resize(n);
    ColumnTopKHeaps col_heaps(std::vector<size_t>(m, k_cols));
    for (size_t b = 0; b < n; b += block) {
      const size_t e = std::min(n, b + block);
      EM_ASSIGN_OR_RETURN(ScratchMatrix tile,
                          ScratchMatrix::Acquire(&workspace, e - b, m));
      Matrix& scores = tile.get();
      EM_RETURN_NOT_OK(ComputeSimilarityRange(source, target, options.metric,
                                              cache, b, e, &scores));
      const std::vector<float> row_phi = RowTopKMean(scores, k_rows);
      std::copy(row_phi.begin(), row_phi.end(), phi_s.begin() + b);
      for (size_t r = 0; r < scores.rows(); ++r) {
        const float* row = scores.Row(r).data();
        for (size_t c = 0; c < m; ++c) col_heaps.Offer(c, row[c]);
      }
    }
    phi_t.resize(m);
    for (size_t c = 0; c < m; ++c) phi_t[c] = col_heaps.Mean(c);
  }

  // Pass 2 (or the only pass): blockwise argmax decisions.
  Assignment assignment;
  assignment.target_of_source.assign(n, Assignment::kUnmatched);
  for (size_t b = 0; b < n; b += block) {
    const size_t e = std::min(n, b + block);
    EM_ASSIGN_OR_RETURN(ScratchMatrix tile,
                        ScratchMatrix::Acquire(&workspace, e - b, m));
    Matrix& scores = tile.get();
    EM_RETURN_NOT_OK(ComputeSimilarityRange(source, target, options.metric,
                                            cache, b, e, &scores));
    for (size_t r = 0; r < scores.rows(); ++r) {
      const std::span<float> row = scores.Row(r);
      if (options.use_csls) {
        for (size_t j = 0; j < m; ++j) {
          row[j] = 2.0f * row[j] - phi_s[b + r] - phi_t[j];
        }
      }
      assignment.target_of_source[b + r] = static_cast<int32_t>(RowArgmax(row));
    }
  }
  return assignment;
}

}  // namespace entmatcher
