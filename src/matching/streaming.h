#ifndef ENTMATCHER_MATCHING_STREAMING_H_
#define ENTMATCHER_MATCHING_STREAMING_H_

#include "common/status.h"
#include "la/matrix.h"
#include "la/similarity.h"
#include "matching/types.h"

namespace entmatcher {

/// Options for the streaming (blocked) matcher.
struct StreamingOptions {
  SimilarityMetric metric = SimilarityMetric::kCosine;
  /// Apply CSLS local scaling (otherwise raw DInf decisions).
  bool use_csls = false;
  /// CSLS neighborhood size.
  size_t csls_k = 1;
  /// Source rows scored per block; workspace is O(block_rows x m).
  size_t block_rows = 256;
  /// Hard cap in bytes on the streaming tile arena (0 = unlimited). A sweep
  /// whose per-block tile cannot fit fails with a clean kResourceExhausted —
  /// no partial assignment is ever returned.
  size_t workspace_budget_bytes = 0;
};

/// Greedy/CSLS matching that never materializes the full n x m score
/// matrix: a loop of MatchEngine row-range queries, one per block of source
/// rows. Each block scores only its own rows; CSLS's column statistic comes
/// from the engine's per-snapshot memo, which the first block builds by
/// sweeping every row through its own block-sized tile.
///
/// This implements the scalability direction the paper closes with
/// (Sec. 6 observation 4, after ClusterEA [15]): DInf/CSLS decisions at
/// O(block x m) workspace instead of O(n x m), enabling paper-scale inputs
/// (70k x 70k would need ~19.6 GB dense but only ~70 MB at block 256).
/// Decisions are bit-identical to the dense pipeline — the same rows of the
/// same engine's answer — verified by property tests and the ablation
/// bench.
Result<Assignment> StreamingMatch(const Matrix& source, const Matrix& target,
                                  const StreamingOptions& options);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_STREAMING_H_
