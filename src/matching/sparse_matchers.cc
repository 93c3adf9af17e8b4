#include "matching/sparse_matchers.h"

// SparseGreedyMatch, SparseGreedyOneToOneMatch and SparseMutualBestMatch are
// defined next to their dense counterparts (greedy.cc, greedy_one_to_one.cc):
// one decision template each, run over candidate rows.

namespace entmatcher {

bool MatcherSupportsSparse(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kGreedy:
    case MatcherKind::kGreedyOneToOne:
    case MatcherKind::kMutualBest:
      return true;
    case MatcherKind::kHungarian:
    case MatcherKind::kGaleShapley:
    case MatcherKind::kRl:
      return false;
  }
  return false;
}

Result<Assignment> MatchSparseScores(const SparseScores& scores,
                                     const MatchOptions& options) {
  switch (options.matcher) {
    case MatcherKind::kGreedy:
      return SparseGreedyMatch(scores);
    case MatcherKind::kGreedyOneToOne:
      return SparseGreedyOneToOneMatch(scores);
    case MatcherKind::kMutualBest:
      return SparseMutualBestMatch(scores);
    case MatcherKind::kHungarian:
      return Status::InvalidArgument(
          "Hungarian needs the full cost matrix; it cannot run on candidate "
          "lists — drop the candidate index for this matcher");
    case MatcherKind::kGaleShapley:
      return Status::InvalidArgument(
          "Gale-Shapley needs full preference tables; it cannot run on "
          "candidate lists — drop the candidate index for this matcher");
    case MatcherKind::kRl:
      return Status::InvalidArgument(
          "the RL matcher needs KG context; use RunMatching or RlMatch");
  }
  return Status::InvalidArgument("unknown matcher kind");
}

}  // namespace entmatcher
