#include "eval/experiment.h"

#include <algorithm>

#include "common/memory_tracker.h"
#include "common/timer.h"
#include "la/similarity.h"
#include "la/topk.h"

namespace entmatcher {

Result<ExperimentResult> RunExperiment(const KgPairDataset& dataset,
                                       const EmbeddingPair& embeddings,
                                       AlgorithmPreset preset) {
  return RunExperimentWithOptions(dataset, embeddings, MakePreset(preset),
                                  PresetName(preset));
}

Result<ExperimentResult> RunExperimentWithOptions(
    const KgPairDataset& dataset, const EmbeddingPair& embeddings,
    const MatchOptions& options, const std::string& algorithm_name) {
  EM_ASSIGN_OR_RETURN(MatchRun run, RunMatching(dataset, embeddings, options));
  ExperimentResult result;
  result.dataset = dataset.name;
  result.algorithm = algorithm_name;
  result.metrics = EvaluatePredictions(run.predicted, dataset.split.test);
  result.seconds = run.seconds;
  result.peak_workspace_bytes = run.peak_workspace_bytes;
  return result;
}

Result<ExperimentSession> ExperimentSession::Create(
    const KgPairDataset& dataset, const EmbeddingPair& embeddings,
    size_t workspace_budget_bytes) {
  if (dataset.test_source_entities.empty() ||
      dataset.test_target_entities.empty()) {
    return Status::FailedPrecondition(
        "ExperimentSession: dataset has no test candidates (call "
        "PopulateTestCandidates)");
  }
  EM_ASSIGN_OR_RETURN(
      Matrix source,
      ExtractRows(embeddings.source, dataset.test_source_entities));
  EM_ASSIGN_OR_RETURN(
      Matrix target,
      ExtractRows(embeddings.target, dataset.test_target_entities));
  MatchOptions engine_options;
  engine_options.workspace_budget_bytes = workspace_budget_bytes;
  EM_ASSIGN_OR_RETURN(
      MatchEngine engine,
      MatchEngine::Create(std::move(source), std::move(target),
                          engine_options));
  return ExperimentSession(dataset, embeddings,
                           std::make_unique<MatchEngine>(std::move(engine)));
}

Result<ExperimentResult> ExperimentSession::Run(AlgorithmPreset preset) {
  return RunWithOptions(MakePreset(preset), PresetName(preset));
}

Result<ExperimentResult> ExperimentSession::RunWithOptions(
    const MatchOptions& options, const std::string& algorithm_name) {
  if (options.matcher == MatcherKind::kRl) {
    // The RL matcher trains on KG context per run; nothing to amortize.
    return RunExperimentWithOptions(*dataset_, *embeddings_, options,
                                    algorithm_name);
  }

  // Measure exactly like RunMatching: candidates are already extracted, so
  // the baseline starts at the same point and the reported peak matches the
  // one-shot path byte for byte.
  MemoryTracker& tracker = MemoryTracker::Global();
  const size_t baseline_bytes = tracker.current_bytes();
  tracker.ResetPeak();
  Timer timer;

  EM_ASSIGN_OR_RETURN(Assignment assignment, engine_->Match(options));

  const double seconds = timer.ElapsedSeconds();
  const MemoryTracker::Stats stats = tracker.stats();
  const size_t tracked_peak =
      stats.peak_bytes > baseline_bytes ? stats.peak_bytes - baseline_bytes : 0;

  ExperimentResult result;
  result.dataset = dataset_->name;
  result.algorithm = algorithm_name;
  result.metrics = EvaluatePredictions(AssignmentToPairs(*dataset_, assignment),
                                       dataset_->split.test);
  result.seconds = seconds;
  result.peak_workspace_bytes =
      std::max(tracked_peak, engine_->workspace().high_water_bytes());
  return result;
}

Result<double> TopKScoreStd(const KgPairDataset& dataset,
                            const EmbeddingPair& embeddings, size_t k) {
  EM_ASSIGN_OR_RETURN(
      const Matrix source,
      ExtractRows(embeddings.source, dataset.test_source_entities));
  EM_ASSIGN_OR_RETURN(
      const Matrix target,
      ExtractRows(embeddings.target, dataset.test_target_entities));
  EM_ASSIGN_OR_RETURN(
      Matrix scores,
      ComputeSimilarity(source, target, SimilarityMetric::kCosine));
  return MeanRowTopKStd(scores, k);
}

}  // namespace entmatcher
