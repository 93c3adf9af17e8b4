#ifndef ENTMATCHER_MATCHING_GALE_SHAPLEY_H_
#define ENTMATCHER_MATCHING_GALE_SHAPLEY_H_

#include "common/status.h"
#include "la/matrix.h"
#include "la/workspace.h"
#include "matching/types.h"

namespace entmatcher {

/// Stable embedding matching (paper Sec. 3.6): sources propose in descending
/// pairwise-score order; targets hold their best proposer by their own score
/// ranking (Gale–Shapley deferred acceptance). The result is a stable,
/// source-optimal matching.
///
/// Space matches Table 2: both sides' full preference rankings are
/// materialized, a deliberately heavy O(n^2) index footprint — the paper
/// singles SMat out as the least space-efficient algorithm, which is what
/// sinks it at DWY100K scale. Time does not: the paper's O(n^2 lg n) is the
/// comparison-sort bound, while the preference tables here are ordered by
/// la/ranking.h's radix primitive in O(n·m), in parallel over rows and
/// columns, and the serial proposal loop makes at most n·m proposals.
///
/// Rectangular inputs are supported: when there are more sources than
/// targets, the overflow sources end up kUnmatched.
///
/// The three preference tables come from `workspace` when one is supplied
/// (engine queries recycle them); otherwise they are owned vectors whose
/// bytes are registered with MemoryTracker for the duration — both paths
/// account identical byte totals, so peak metrics do not depend on reuse.
Result<Assignment> GaleShapleyMatch(const Matrix& scores,
                                    Workspace* workspace = nullptr);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_GALE_SHAPLEY_H_
