#include "eval/ranking_metrics.h"

#include <unordered_map>
#include <unordered_set>

#include "la/similarity.h"

namespace entmatcher {

Result<RankingMetrics> EvaluateRanking(const KgPairDataset& dataset,
                                       const Matrix& scores) {
  const auto& src_ids = dataset.test_source_entities;
  const auto& tgt_ids = dataset.test_target_entities;
  if (scores.rows() != src_ids.size() || scores.cols() != tgt_ids.size()) {
    return Status::InvalidArgument(
        "EvaluateRanking: score shape does not match the candidate sets");
  }

  // Gold target columns per source row.
  std::unordered_map<EntityId, uint32_t> col_of_target;
  col_of_target.reserve(tgt_ids.size());
  for (size_t j = 0; j < tgt_ids.size(); ++j) {
    col_of_target.emplace(tgt_ids[j], static_cast<uint32_t>(j));
  }

  RankingMetrics metrics;
  double mrr_sum = 0.0;
  size_t hits1 = 0, hits5 = 0, hits10 = 0;
  for (size_t i = 0; i < src_ids.size(); ++i) {
    std::unordered_set<uint32_t> gold_cols;
    for (EntityId t : dataset.split.test.TargetsOf(src_ids[i])) {
      auto it = col_of_target.find(t);
      if (it != col_of_target.end()) gold_cols.insert(it->second);
    }
    if (gold_cols.empty()) continue;  // unmatchable source
    ++metrics.evaluated;

    // Rank of the best gold column: 1 + number of strictly larger scores
    // (ties resolved optimistically toward earlier columns, matching the
    // deterministic argmax convention).
    const float* row = scores.Row(i).data();
    size_t best_rank = scores.cols() + 1;
    for (uint32_t g : gold_cols) {
      size_t rank = 1;
      const float gold_score = row[g];
      for (size_t j = 0; j < scores.cols(); ++j) {
        if (row[j] > gold_score || (row[j] == gold_score && j < g)) ++rank;
      }
      best_rank = std::min(best_rank, rank);
    }
    if (best_rank <= 1) ++hits1;
    if (best_rank <= 5) ++hits5;
    if (best_rank <= 10) ++hits10;
    mrr_sum += 1.0 / static_cast<double>(best_rank);
  }

  if (metrics.evaluated > 0) {
    const double n = static_cast<double>(metrics.evaluated);
    metrics.hits_at_1 = hits1 / n;
    metrics.hits_at_5 = hits5 / n;
    metrics.hits_at_10 = hits10 / n;
    metrics.mrr = mrr_sum / n;
  }
  return metrics;
}

Result<RankingMetrics> EvaluateEmbeddingRanking(
    const KgPairDataset& dataset, const EmbeddingPair& embeddings) {
  EM_ASSIGN_OR_RETURN(
      const Matrix src,
      ExtractRows(embeddings.source, dataset.test_source_entities));
  EM_ASSIGN_OR_RETURN(
      const Matrix tgt,
      ExtractRows(embeddings.target, dataset.test_target_entities));
  EM_ASSIGN_OR_RETURN(
      Matrix scores, ComputeSimilarity(src, tgt, SimilarityMetric::kCosine));
  return EvaluateRanking(dataset, scores);
}

}  // namespace entmatcher
