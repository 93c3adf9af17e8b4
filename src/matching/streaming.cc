#include "matching/streaming.h"

#include <algorithm>

#include "matching/engine.h"

namespace entmatcher {

Result<Assignment> StreamingMatch(const Matrix& source, const Matrix& target,
                                  const StreamingOptions& options) {
  if (options.block_rows == 0) {
    return Status::InvalidArgument("StreamingMatch: block_rows must be >= 1");
  }
  if (options.use_csls && options.csls_k == 0) {
    return Status::InvalidArgument("StreamingMatch: csls_k must be >= 1");
  }
  MatchOptions match;
  match.metric = options.metric;
  match.transform =
      options.use_csls ? ScoreTransformKind::kCsls : ScoreTransformKind::kNone;
  match.csls_k = options.csls_k;
  match.workspace_budget_bytes = options.workspace_budget_bytes;
  // The engine's snapshot borrows the embeddings: it only reads them, and it
  // is gone before this function returns.
  EM_ASSIGN_OR_RETURN(
      MatchEngine engine,
      MatchEngine::Create(
          Matrix::Borrowed(const_cast<float*>(source.data()), source.rows(),
                           source.cols()),
          Matrix::Borrowed(const_cast<float*>(target.data()), target.rows(),
                           target.cols()),
          match));

  // One row-range query per block. Each leases a block × m tile; CSLS's
  // column statistic is built once, by the first block, in that tile.
  const size_t n = source.rows();
  Assignment assignment;
  assignment.target_of_source.reserve(n);
  for (size_t begin = 0; begin < n; begin += options.block_rows) {
    const size_t end = std::min(n, begin + options.block_rows);
    EM_ASSIGN_OR_RETURN(MatchEngine::ScoredBatch batch,
                        engine.BeginBatch(match, begin, end));
    EM_ASSIGN_OR_RETURN(Assignment rows, batch.Match(match));
    assignment.target_of_source.insert(assignment.target_of_source.end(),
                                       rows.target_of_source.begin(),
                                       rows.target_of_source.end());
  }
  return assignment;
}

}  // namespace entmatcher
