#include "eval/explain.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/string_util.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/pipeline.h"
#include "matching/transforms.h"

namespace entmatcher {

namespace {

// Rank of column j within row (1 = best), ties to earlier columns.
size_t RankInRow(const Matrix& scores, size_t row, uint32_t j) {
  const float* r = scores.Row(row).data();
  size_t rank = 1;
  const float v = r[j];
  for (size_t c = 0; c < scores.cols(); ++c) {
    if (r[c] > v || (r[c] == v && c < j)) ++rank;
  }
  return rank;
}

}  // namespace

Result<std::vector<MatchExplanation>> ExplainMatches(
    const KgPairDataset& dataset, const EmbeddingPair& embeddings,
    const MatchOptions& options, const std::vector<EntityId>& sources,
    size_t top_k) {
  if (options.matcher == MatcherKind::kRl) {
    return Status::InvalidArgument(
        "ExplainMatches supports the deterministic pipelines, not kRl");
  }
  const auto& src_ids = dataset.test_source_entities;
  const auto& tgt_ids = dataset.test_target_entities;

  std::unordered_map<EntityId, size_t> row_of_source;
  for (size_t i = 0; i < src_ids.size(); ++i) row_of_source[src_ids[i]] = i;
  for (EntityId s : sources) {
    if (row_of_source.find(s) == row_of_source.end()) {
      return Status::InvalidArgument(
          "ExplainMatches: entity is not a test source candidate");
    }
  }

  EM_ASSIGN_OR_RETURN(const Matrix src,
                      ExtractRows(embeddings.source, src_ids));
  EM_ASSIGN_OR_RETURN(const Matrix tgt,
                      ExtractRows(embeddings.target, tgt_ids));
  EM_ASSIGN_OR_RETURN(Matrix raw,
                      ComputeSimilarity(src, tgt, options.metric));
  // The explanation reports raw vs transformed side by side, so the one copy
  // of `raw` is inherent; the transform itself runs in place on it.
  Matrix transformed = raw;
  EM_RETURN_NOT_OK(ApplyScoreTransformInPlace(&transformed, options));
  EM_ASSIGN_OR_RETURN(Assignment assignment,
                      MatchScores(transformed, options));

  const size_t k = std::min(top_k, tgt_ids.size());
  std::vector<MatchExplanation> out;
  out.reserve(sources.size());
  for (EntityId s : sources) {
    const size_t row = row_of_source.at(s);
    MatchExplanation ex;
    ex.source = s;
    ex.source_name =
        dataset.source.has_entity_names() ? dataset.source.EntityName(s) : "";

    // Union of the top-k under raw and transformed scores.
    std::vector<uint32_t> cand;
    {
      Matrix raw_row(1, raw.cols());
      std::copy(raw.Row(row).begin(), raw.Row(row).end(),
                raw_row.Row(0).begin());
      Matrix tr_row(1, transformed.cols());
      std::copy(transformed.Row(row).begin(), transformed.Row(row).end(),
                tr_row.Row(0).begin());
      for (uint32_t j : RowTopKIndices(raw_row, k)) cand.push_back(j);
      for (uint32_t j : RowTopKIndices(tr_row, k)) cand.push_back(j);
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    }
    for (uint32_t j : cand) {
      CandidateExplanation ce;
      ce.target = tgt_ids[j];
      ce.target_name = dataset.target.has_entity_names()
                           ? dataset.target.EntityName(tgt_ids[j])
                           : "";
      ce.raw_score = raw.At(row, j);
      ce.transformed_score = transformed.At(row, j);
      ce.raw_rank = RankInRow(raw, row, j);
      ce.transformed_rank = RankInRow(transformed, row, j);
      ce.is_gold = dataset.split.test.Contains(s, tgt_ids[j]);
      ex.candidates.push_back(ce);
    }
    std::sort(ex.candidates.begin(), ex.candidates.end(),
              [](const CandidateExplanation& a, const CandidateExplanation& b) {
                return a.transformed_rank < b.transformed_rank;
              });

    ex.decided_target_column = assignment.target_of_source[row];
    if (ex.decided_target_column != Assignment::kUnmatched) {
      ex.decided_target = tgt_ids[static_cast<size_t>(ex.decided_target_column)];
      ex.decided_target_name = dataset.target.has_entity_names()
                                   ? dataset.target.EntityName(ex.decided_target)
                                   : "";
      ex.decision_is_gold = dataset.split.test.Contains(s, ex.decided_target);
    }
    out.push_back(std::move(ex));
  }
  return out;
}

std::string FormatExplanation(const MatchExplanation& explanation) {
  std::ostringstream os;
  os << "source entity " << explanation.source;
  if (!explanation.source_name.empty()) {
    os << " ('" << explanation.source_name << "')";
  }
  os << "\n";
  for (const CandidateExplanation& c : explanation.candidates) {
    os << "  cand " << c.target;
    if (!c.target_name.empty()) os << " ('" << c.target_name << "')";
    os << ": raw=" << FormatDouble(c.raw_score, 3) << " (rank " << c.raw_rank
       << ") -> transformed=" << FormatDouble(c.transformed_score, 3)
       << " (rank " << c.transformed_rank << ")" << (c.is_gold ? "  [GOLD]" : "")
       << "\n";
  }
  if (explanation.decided_target_column == Assignment::kUnmatched) {
    os << "  decision: NO MATCH (rejected)\n";
  } else {
    os << "  decision: " << explanation.decided_target;
    if (!explanation.decided_target_name.empty()) {
      os << " ('" << explanation.decided_target_name << "')";
    }
    os << (explanation.decision_is_gold ? "  [CORRECT]" : "  [WRONG]") << "\n";
  }
  return os.str();
}

}  // namespace entmatcher
