#ifndef ENTMATCHER_LA_SIMILARITY_H_
#define ENTMATCHER_LA_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"

namespace entmatcher {

/// Similarity metrics for deriving pairwise scores from embeddings
/// (paper Sec. 4.2). All metrics are expressed in "higher is better" form:
/// distance-based metrics are negated so Greedy/Hungarian can treat every
/// score matrix uniformly.
enum class SimilarityMetric {
  /// Cosine similarity (the paper's main choice).
  kCosine,
  /// Negated Euclidean distance.
  kNegEuclidean,
  /// Negated Manhattan (L1) distance.
  kNegManhattan,
};

/// Returns a stable display name ("cosine", "euclidean", "manhattan").
const char* SimilarityMetricName(SimilarityMetric metric);

/// Computes the (n×m) pairwise score matrix between source embeddings
/// (n×d) and target embeddings (m×d) under `metric`. Error if dims mismatch
/// or either side is empty.
Result<Matrix> ComputeSimilarity(const Matrix& source, const Matrix& target,
                                 SimilarityMetric metric);

/// Per-row statistics that let similarity scores be produced tile by tile
/// without rescanning the embeddings: inverse L2 norms for cosine, squared
/// norms (as doubles, matching the dense kernel's accumulation) for negated
/// Euclidean. A MatchEngine builds this once per (source, target, metric)
/// and reuses it for every query; only the fields `metric` needs are filled.
struct SimilarityCache {
  std::vector<float> inv_source_norms;
  std::vector<float> inv_target_norms;
  std::vector<double> source_sq_norms;
  std::vector<double> target_sq_norms;
};

/// Builds the per-row statistics `metric` needs (other fields stay empty).
SimilarityCache BuildSimilarityCache(const Matrix& source, const Matrix& target,
                                     SimilarityMetric metric);

/// Tiled similarity: scores source rows [row_begin, row_end) against every
/// target row into `out`, which must be (row_end - row_begin) × target.rows().
/// `cache` must have been built for (source, target, metric). Bit-identical
/// to the same rows of ComputeSimilarity at every thread count and tile size
/// — the dense, streaming, and engine paths all run through this kernel.
Status ComputeSimilarityRange(const Matrix& source, const Matrix& target,
                              SimilarityMetric metric,
                              const SimilarityCache& cache, size_t row_begin,
                              size_t row_end, Matrix* out);

/// Exact scores of source row i against target rows `cols`: out[e] is
/// byte-equal to cell (i, cols[e]) of ComputeSimilarity at every kernel tier.
/// Each metric replays the dense kernel's accumulation order and float
/// expression grouping, which is what lets the candidate index rerank
/// produce entries interchangeable with dense scores. `cache` must have been
/// built for (source, target, metric).
void PairSimilarities(const Matrix& source, const Matrix& target, size_t i,
                      std::span<const uint32_t> cols, SimilarityMetric metric,
                      const SimilarityCache& cache, float* out);

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_SIMILARITY_H_
