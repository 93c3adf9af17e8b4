#ifndef ENTMATCHER_MATCHING_SPARSE_MATCHERS_H_
#define ENTMATCHER_MATCHING_SPARSE_MATCHERS_H_

#include "common/status.h"
#include "la/sparse.h"
#include "matching/types.h"

namespace entmatcher {

/// True when `kind` can decide over candidate lists. Greedy, greedy 1-to-1,
/// and mutual-best only ever compare scores a row (or column) actually has.
/// Hungarian and Gale–Shapley are refused with kInvalidArgument: both are
/// defined over the complete bipartite graph (a missing cell is not "score
/// -inf", it is "unknown"), so running them on a candidate subset would
/// silently change the problem being solved. RL needs KG context and is
/// refused for the same reason as in the dense engine path.
bool MatcherSupportsSparse(MatcherKind kind);

/// The three decisions below are GreedyMatch, GreedyOneToOneMatch and
/// MutualBestMatch — the same code, run over candidate rows — so with
/// complete lists they return the dense assignment.

/// Row-wise argmax over candidate lists (first maximum wins, as dense
/// RowArgmax); rows with no candidates stay kUnmatched.
Result<Assignment> SparseGreedyMatch(const SparseScores& scores);

/// Global greedy 1-to-1 over candidate entries: entries sorted by
/// (value desc, entry id asc) — which, with column-ascending storage, is the
/// dense (value desc, cell id asc) order restricted to present cells.
Result<Assignment> SparseGreedyOneToOneMatch(const SparseScores& scores);

/// Mutual-best filter over candidate entries, with abstention.
Result<Assignment> SparseMutualBestMatch(const SparseScores& scores);

/// Decision-stage dispatch for sparse scores (the sparse MatchScores).
/// Unsupported matchers return kInvalidArgument.
Result<Assignment> MatchSparseScores(const SparseScores& scores,
                                     const MatchOptions& options);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_SPARSE_MATCHERS_H_
