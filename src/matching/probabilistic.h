#ifndef ENTMATCHER_MATCHING_PROBABILISTIC_H_
#define ENTMATCHER_MATCHING_PROBABILISTIC_H_

#include <vector>

#include "common/status.h"
#include "embedding/embedding.h"
#include "kg/dataset.h"
#include "la/matrix.h"
#include "matching/types.h"

namespace entmatcher {

/// A matching that may assign zero or several targets per source — the
/// output shape required once the 1-to-1 assumption is dropped.
struct MultiAssignment {
  /// targets_of_source[i] lists the accepted target columns for source row i
  /// (possibly empty).
  std::vector<std::vector<uint32_t>> targets_of_source;
};

/// Options for the probabilistic matcher.
struct ProbabilisticOptions {
  /// Softmax temperature over each source row's scores.
  double temperature = 0.05;
  /// Pseudo-score of the explicit "no match" outcome; calibrate with
  /// CalibrateNoMatchScore or set manually.
  double no_match_score = 0.5;
  /// Posterior mass a candidate needs to be emitted as a link.
  double accept_threshold = 0.25;
};

/// Probabilistic embedding matching — the paper's future direction (5): each
/// source row's scores become a softmax posterior over the candidate targets
/// *plus an explicit no-match outcome* whose pseudo-score is
/// `no_match_score`. Every candidate whose posterior exceeds
/// `accept_threshold` is emitted:
///   - none exceed it  => the source is left unmatched (unmatchable setting);
///   - several exceed  => multiple links (non-1-to-1 setting).
Result<MultiAssignment> ProbabilisticMatch(const Matrix& scores,
                                           const ProbabilisticOptions& options);

/// Calibrates `no_match_score` on the dataset's validation links: sweeps
/// candidate thresholds (score quantiles) and returns the one maximizing
/// validation F1. This is how the probabilistic matcher learns to abstain
/// without ever seeing test data.
Result<double> CalibrateNoMatchScore(const KgPairDataset& dataset,
                                     const EmbeddingPair& embeddings,
                                     const ProbabilisticOptions& options);

/// Dataset-level convenience: calibrates on the validation split, scores the
/// test candidates with cosine similarity, matches probabilistically, and
/// returns the predicted entity pairs.
Result<AlignmentSet> RunProbabilisticMatching(const KgPairDataset& dataset,
                                              const EmbeddingPair& embeddings,
                                              ProbabilisticOptions options);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_PROBABILISTIC_H_
