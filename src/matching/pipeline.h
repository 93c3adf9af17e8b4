#ifndef ENTMATCHER_MATCHING_PIPELINE_H_
#define ENTMATCHER_MATCHING_PIPELINE_H_

#include "common/status.h"
#include "common/timer.h"
#include "embedding/embedding.h"
#include "kg/dataset.h"
#include "la/matrix.h"
#include "la/workspace.h"
#include "matching/types.h"

namespace entmatcher {

/// Stages 1+2 of the EntMatcher pipeline (paper Fig. 3): derive the pairwise
/// similarity matrix from candidate embeddings under options.metric, then
/// apply the configured score transform (in place on the freshly computed
/// scores).
Result<Matrix> ComputeScores(const Matrix& source, const Matrix& target,
                             const MatchOptions& options);

/// Stage 3: the matching decision on a (possibly transformed) score matrix.
/// Supports kGreedy, kHungarian and kGaleShapley; the RL matcher needs KG
/// context and is reached through RunMatching (or RlMatch directly).
/// Hungarian and Gale–Shapley pad rectangular inputs with dummy nodes (the
/// paper's recipe for unequal entity counts, Sec. 5.1); sources landing on a
/// dummy come back as Assignment::kUnmatched.
Result<Assignment> MatchScores(const Matrix& scores,
                               const MatchOptions& options);

/// Same, drawing the decision stage's matrix-scale buffers (padded cost
/// matrix, preference tables) from `workspace`. The engine's query path;
/// null workspace behaves exactly like the two-argument overload.
Result<Assignment> MatchScores(const Matrix& scores,
                               const MatchOptions& options,
                               Workspace* workspace);

/// Embeddings in, assignment out. A thin wrapper that builds a single-query
/// MatchEngine and runs it — repeated-evaluation callers should hold a
/// MatchEngine (matching/engine.h) instead and amortize the preparation.
/// Honors options.workspace_budget_bytes (kResourceExhausted when the query
/// cannot fit). Not usable with matcher == kRl (needs KG context).
Result<Assignment> MatchEmbeddings(const Matrix& source, const Matrix& target,
                                   const MatchOptions& options);

/// A full dataset-level matching run: timing and deterministic workspace
/// accounting around the complete pipeline, with entity-level output.
struct MatchRun {
  /// Row/column assignment over the dataset's test candidate sets.
  Assignment assignment;
  /// The predicted entity pairs (rows/cols mapped back to entity ids).
  AlignmentSet predicted;
  /// Wall-clock seconds of the matching stage (scores + transform + decision).
  double seconds = 0.0;
  /// Peak tracked workspace allocated by the matching stage, in bytes.
  /// Arena leases and owned buffers account identically, so this metric is
  /// the same whether the run reused a warm engine's buffers or started
  /// cold.
  size_t peak_workspace_bytes = 0;
  /// Peak bytes leased from the engine's workspace arena during the run
  /// (0 for the kRl path, which does not run through an engine).
  size_t arena_high_water_bytes = 0;
};

/// The one measurement of a matching run, shared by RunMatching,
/// ExperimentSession and the CLI's raw-pair mode. Construct it once the
/// run's inputs are in place (embeddings loaded or candidates extracted):
/// it resets MemoryTracker's peak and starts the clock, so the inputs are
/// not counted as workspace.
class MatchMeter {
 public:
  MatchMeter();

  /// Sets run->seconds, and run->peak_workspace_bytes to the tracked peak
  /// above the bytes live at construction. Arena leases mirror into the
  /// tracker, so the two agree; the peak is floored at
  /// run->arena_high_water_bytes for a run over a pre-warmed engine whose
  /// buffers predate the baseline.
  void Stop(MatchRun* run) const;

 private:
  size_t baseline_bytes_;
  Timer timer_;
};

/// Maps a candidate-space assignment (rows/columns over the dataset's test
/// candidate sets) back to entity pairs.
AlignmentSet AssignmentToPairs(const KgPairDataset& dataset,
                               const Assignment& assignment);

/// Extracts the dataset's test candidate embeddings, runs the configured
/// pipeline (including the RL matcher), and maps the assignment back to
/// entity pairs.
Result<MatchRun> RunMatching(const KgPairDataset& dataset,
                             const EmbeddingPair& embeddings,
                             const MatchOptions& options);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_PIPELINE_H_
