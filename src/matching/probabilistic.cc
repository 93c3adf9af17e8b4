#include "matching/probabilistic.h"

#include <algorithm>
#include <cmath>

#include "la/similarity.h"
#include "la/topk.h"

namespace entmatcher {

Result<MultiAssignment> ProbabilisticMatch(const Matrix& scores,
                                           const ProbabilisticOptions& options) {
  if (scores.rows() == 0 || scores.cols() == 0) {
    return Status::InvalidArgument("ProbabilisticMatch: empty score matrix");
  }
  if (options.temperature <= 0.0) {
    return Status::InvalidArgument("ProbabilisticMatch: temperature must be > 0");
  }
  if (options.accept_threshold <= 0.0 || options.accept_threshold > 1.0) {
    return Status::InvalidArgument(
        "ProbabilisticMatch: accept_threshold must be in (0, 1]");
  }
  const size_t n = scores.rows();
  const size_t m = scores.cols();
  const double inv_t = 1.0 / options.temperature;

  MultiAssignment assignment;
  assignment.targets_of_source.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const float* row = scores.Row(i).data();
    double max_score = options.no_match_score;
    for (size_t j = 0; j < m; ++j) {
      max_score = std::max(max_score, static_cast<double>(row[j]));
    }
    // Softmax over {candidates} + {no-match}, stabilized by max subtraction.
    double z = std::exp((options.no_match_score - max_score) * inv_t);
    for (size_t j = 0; j < m; ++j) {
      z += std::exp((row[j] - max_score) * inv_t);
    }
    for (size_t j = 0; j < m; ++j) {
      const double p = std::exp((row[j] - max_score) * inv_t) / z;
      if (p >= options.accept_threshold) {
        assignment.targets_of_source[i].push_back(static_cast<uint32_t>(j));
      }
    }
  }
  return assignment;
}

namespace {

// F1 of a multi-assignment against gold columns.
double MultiF1(const MultiAssignment& assignment,
               const std::vector<std::vector<uint32_t>>& gold_cols,
               size_t total_gold_links) {
  size_t correct = 0;
  size_t found = 0;
  for (size_t i = 0; i < assignment.targets_of_source.size(); ++i) {
    found += assignment.targets_of_source[i].size();
    for (uint32_t j : assignment.targets_of_source[i]) {
      const auto& gold = gold_cols[i];
      if (std::find(gold.begin(), gold.end(), j) != gold.end()) ++correct;
    }
  }
  if (found == 0 || total_gold_links == 0 || correct == 0) return 0.0;
  const double p = static_cast<double>(correct) / static_cast<double>(found);
  const double r =
      static_cast<double>(correct) / static_cast<double>(total_gold_links);
  return 2.0 * p * r / (p + r);
}

}  // namespace

Result<double> CalibrateNoMatchScore(const KgPairDataset& dataset,
                                     const EmbeddingPair& embeddings,
                                     const ProbabilisticOptions& options) {
  const std::vector<EntityPair>& valid = dataset.split.valid.pairs();
  if (valid.size() < 4) {
    return Status::FailedPrecondition(
        "CalibrateNoMatchScore: need at least 4 validation links");
  }
  // Leave-half-out construction: candidate targets come from the first half
  // of the validation links only, so the second half's sources are
  // unmatchable *by construction* — giving the sweep real abstention cases.
  const size_t half = valid.size() / 2;
  std::vector<EntityId> sources;
  std::vector<EntityId> targets;
  for (const EntityPair& p : valid) sources.push_back(p.source);
  for (size_t i = 0; i < half; ++i) targets.push_back(valid[i].target);

  EM_ASSIGN_OR_RETURN(const Matrix src,
                      ExtractRows(embeddings.source, sources));
  EM_ASSIGN_OR_RETURN(const Matrix tgt,
                      ExtractRows(embeddings.target, targets));
  EM_ASSIGN_OR_RETURN(
      Matrix scores, ComputeSimilarity(src, tgt, SimilarityMetric::kCosine));

  std::vector<std::vector<uint32_t>> gold_cols(sources.size());
  for (size_t i = 0; i < half; ++i) gold_cols[i].push_back(static_cast<uint32_t>(i));

  // Sweep thresholds across the observed row-max range.
  const std::vector<float> row_max = RowMax(scores);
  float lo = row_max[0];
  float hi = row_max[0];
  for (float v : row_max) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double best_theta = options.no_match_score;
  double best_f1 = -1.0;
  constexpr int kSteps = 24;
  for (int s = 0; s <= kSteps; ++s) {
    ProbabilisticOptions trial = options;
    trial.no_match_score =
        lo + (hi - lo) * static_cast<double>(s) / kSteps;
    EM_ASSIGN_OR_RETURN(MultiAssignment assignment,
                        ProbabilisticMatch(scores, trial));
    const double f1 = MultiF1(assignment, gold_cols, half);
    if (f1 > best_f1) {
      best_f1 = f1;
      best_theta = trial.no_match_score;
    }
  }
  return best_theta;
}

Result<AlignmentSet> RunProbabilisticMatching(const KgPairDataset& dataset,
                                              const EmbeddingPair& embeddings,
                                              ProbabilisticOptions options) {
  EM_ASSIGN_OR_RETURN(options.no_match_score,
                      CalibrateNoMatchScore(dataset, embeddings, options));
  EM_ASSIGN_OR_RETURN(
      const Matrix src,
      ExtractRows(embeddings.source, dataset.test_source_entities));
  EM_ASSIGN_OR_RETURN(
      const Matrix tgt,
      ExtractRows(embeddings.target, dataset.test_target_entities));
  EM_ASSIGN_OR_RETURN(
      Matrix scores, ComputeSimilarity(src, tgt, SimilarityMetric::kCosine));
  EM_ASSIGN_OR_RETURN(MultiAssignment assignment,
                      ProbabilisticMatch(scores, options));

  std::vector<EntityPair> predicted;
  for (size_t i = 0; i < assignment.targets_of_source.size(); ++i) {
    for (uint32_t j : assignment.targets_of_source[i]) {
      predicted.push_back(EntityPair{dataset.test_source_entities[i],
                                     dataset.test_target_entities[j]});
    }
  }
  return AlignmentSet(std::move(predicted));
}

}  // namespace entmatcher
