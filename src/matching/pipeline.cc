#include "matching/pipeline.h"

#include <algorithm>

#include "common/memory_tracker.h"
#include "la/similarity.h"
#include "matching/engine.h"
#include "matching/gale_shapley.h"
#include "matching/greedy.h"
#include "matching/greedy_one_to_one.h"
#include "matching/hungarian_matcher.h"
#include "matching/rl_matcher.h"
#include "matching/transforms.h"

namespace entmatcher {

Result<Matrix> ComputeScores(const Matrix& source, const Matrix& target,
                             const MatchOptions& options) {
  EM_ASSIGN_OR_RETURN(Matrix scores,
                      ComputeSimilarity(source, target, options.metric));
  EM_RETURN_NOT_OK(ApplyScoreTransformInPlace(&scores, options));
  return scores;
}

Result<Assignment> MatchScores(const Matrix& scores,
                               const MatchOptions& options) {
  return MatchScores(scores, options, /*workspace=*/nullptr);
}

Result<Assignment> MatchScores(const Matrix& scores,
                               const MatchOptions& options,
                               Workspace* workspace) {
  switch (options.matcher) {
    case MatcherKind::kGreedy:
      return GreedyMatch(scores);
    case MatcherKind::kHungarian:
      return HungarianMatch(scores, workspace);
    case MatcherKind::kGaleShapley:
      return GaleShapleyMatch(scores, workspace);
    case MatcherKind::kGreedyOneToOne:
      return GreedyOneToOneMatch(scores);
    case MatcherKind::kMutualBest:
      return MutualBestMatch(scores);
    case MatcherKind::kRl:
      return Status::InvalidArgument(
          "the RL matcher needs KG context; use RunMatching or RlMatch");
  }
  return Status::InvalidArgument("unknown matcher kind");
}

Result<Assignment> MatchEmbeddings(const Matrix& source, const Matrix& target,
                                   const MatchOptions& options) {
  if (options.matcher == MatcherKind::kRl) {
    return Status::InvalidArgument(
        "the RL matcher needs KG context; use RunMatching or RlMatch");
  }
  EM_ASSIGN_OR_RETURN(MatchEngine engine,
                      MatchEngine::Create(source, target, options));
  return engine.Match();
}

AlignmentSet AssignmentToPairs(const KgPairDataset& dataset,
                               const Assignment& assignment) {
  std::vector<EntityPair> predicted;
  predicted.reserve(assignment.NumMatched());
  for (size_t i = 0; i < assignment.size(); ++i) {
    const int32_t j = assignment.target_of_source[i];
    if (j == Assignment::kUnmatched) continue;
    predicted.push_back(
        EntityPair{dataset.test_source_entities[i],
                   dataset.test_target_entities[static_cast<size_t>(j)]});
  }
  return AlignmentSet(std::move(predicted));
}

MatchMeter::MatchMeter()
    : baseline_bytes_(MemoryTracker::Global().current_bytes()) {
  MemoryTracker::Global().ResetPeak();
}

void MatchMeter::Stop(MatchRun* run) const {
  run->seconds = timer_.ElapsedSeconds();
  const size_t peak = MemoryTracker::Global().peak_bytes();
  const size_t tracked_peak =
      peak > baseline_bytes_ ? peak - baseline_bytes_ : 0;
  run->peak_workspace_bytes =
      std::max(tracked_peak, run->arena_high_water_bytes);
}

Result<MatchRun> RunMatching(const KgPairDataset& dataset,
                             const EmbeddingPair& embeddings,
                             const MatchOptions& options) {
  if (dataset.test_source_entities.empty() ||
      dataset.test_target_entities.empty()) {
    return Status::FailedPrecondition(
        "RunMatching: dataset has no test candidates (call "
        "PopulateTestCandidates)");
  }

  EM_ASSIGN_OR_RETURN(
      Matrix source,
      ExtractRows(embeddings.source, dataset.test_source_entities));
  EM_ASSIGN_OR_RETURN(
      Matrix target,
      ExtractRows(embeddings.target, dataset.test_target_entities));

  // The measured region starts after candidate extraction: a session that
  // extracted its candidates at Create time must report the same per-query
  // peak as this one-shot path.
  const MatchMeter meter;
  MatchRun run;
  if (options.matcher == MatcherKind::kRl) {
    EM_ASSIGN_OR_RETURN(Matrix scores,
                        ComputeSimilarity(source, target, options.metric));
    EM_ASSIGN_OR_RETURN(run.assignment,
                        RlMatch(dataset, embeddings, scores, options.rl));
  } else {
    EM_ASSIGN_OR_RETURN(
        MatchEngine engine,
        MatchEngine::Create(std::move(source), std::move(target), options));
    EM_ASSIGN_OR_RETURN(run.assignment, engine.Match());
    run.arena_high_water_bytes = engine.workspace().high_water_bytes();
  }
  meter.Stop(&run);
  run.predicted = AssignmentToPairs(dataset, run.assignment);
  return run;
}

}  // namespace entmatcher
