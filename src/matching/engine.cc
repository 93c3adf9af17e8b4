#include "matching/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fault.h"
#include "index/candidate_index.h"
#include "matching/pipeline.h"
#include "matching/sparse_matchers.h"
#include "matching/sparse_transforms.h"
#include "matching/transforms.h"

namespace entmatcher {

namespace {

// Matrix-scale buffers the decision stage leases beyond the score matrix.
size_t MatcherWorkspaceBytes(const MatchOptions& options, size_t rows,
                             size_t cols) {
  switch (options.matcher) {
    case MatcherKind::kHungarian: {
      const size_t side = std::max(rows, cols);
      return side * side * sizeof(float);  // padded square cost matrix
    }
    case MatcherKind::kGaleShapley:
      // Both sides' preference tables plus the rank lookup (paper Sec. 3.6).
      return (rows * cols + 2 * cols * rows) * sizeof(uint32_t);
    case MatcherKind::kGreedy:
    case MatcherKind::kGreedyOneToOne:
    case MatcherKind::kMutualBest:
    case MatcherKind::kRl:
      return 0;
  }
  return 0;
}

// Entry capacity of the sparse path: num_candidates kept per source row,
// clamped to the target count.
size_t SparseNnzCap(const MatchOptions& options, size_t n, size_t m) {
  return n * std::min(options.num_candidates, m);
}

}  // namespace

MatchEngine::MatchEngine(std::shared_ptr<const PairSnapshot> snapshot,
                         const MatchOptions& options,
                         std::unique_ptr<Workspace> workspace)
    : snapshot_(std::move(snapshot)), options_(options),
      workspace_(std::move(workspace)) {}

Result<MatchEngine> MatchEngine::Create(Matrix source, Matrix target,
                                        const MatchOptions& options) {
  Result<std::shared_ptr<PairSnapshot>> snapshot =
      PairSnapshot::Build(std::move(source), std::move(target));
  if (!snapshot.ok()) {
    // Preserve the classic error prefix for existing callers/tests.
    return Status::InvalidArgument(
        "MatchEngine: " + snapshot.status().message());
  }
  return Over(std::move(snapshot).value(), options);
}

Result<MatchEngine> MatchEngine::Over(
    std::shared_ptr<const PairSnapshot> snapshot, const MatchOptions& options,
    std::unique_ptr<Workspace> recycled) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("MatchEngine: null snapshot");
  }
  std::unique_ptr<Workspace> workspace;
  if (recycled != nullptr && recycled->idle()) {
    recycled->Rearm(options.workspace_budget_bytes);
    workspace = std::move(recycled);
  } else {
    workspace = std::make_unique<Workspace>(options.workspace_budget_bytes);
  }
  MatchEngine engine(std::move(snapshot), options, std::move(workspace));
  engine.snapshot_->EnsureCache(options.metric);
  return engine;
}

bool MatchEngine::IsRowLocal(const MatchOptions& options) {
  const ScoreTransformKind t = options.transform;
  return !UsesCandidateIndex(options) &&
         options.matcher == MatcherKind::kGreedy &&
         (t == ScoreTransformKind::kNone || t == ScoreTransformKind::kCsls ||
          t == ScoreTransformKind::kRinfWr);
}

size_t MatchEngine::DeclaredWorkspaceBytesFor(size_t n, size_t m,
                                              const MatchOptions& options,
                                              size_t row_begin,
                                              size_t row_end) {
  if (UsesCandidateIndex(options)) {
    // O(n·c) entries instead of the O(n·m) matrix. Sparse matchers lease no
    // arena tables; greedy-1-to-1's nnz-sized order buffer is heap-allocated
    // and tracker-charged, matching the dense convention.
    const size_t nnz_cap = SparseNnzCap(options, n, m);
    return SparseScores::BytesFor(nnz_cap) +
           SparseTransformWorkspaceBytes(options, nnz_cap);
  }
  const size_t rows = IsRowLocal(options) ? row_end - row_begin : n;
  // The transform scratch is released before the decision stage leases its
  // tables, so the two stages share the same headroom.
  const size_t stage_bytes =
      std::max(TransformWorkspaceBytes(options, rows, m),
               MatcherWorkspaceBytes(options, rows, m));
  return rows * m * sizeof(float) + stage_bytes;
}

Status MatchEngine::ValidateSparseQuery(const MatchOptions& options,
                                        size_t num_targets) {
  if (options.num_candidates == 0) {
    return Status::InvalidArgument(
        "a candidate-index query needs num_candidates >= 1; choose how many "
        "candidates to keep per source row");
  }
  // Each backend reads only its own probe knob, so only that knob is
  // validated — a stray index_ef=0 must not reject an IVF query.
  const CandidateBackendKind backend = options.candidate_index->backend();
  if (backend == CandidateBackendKind::kIvf && options.index_nprobe == 0) {
    return Status::InvalidArgument("index_nprobe must be >= 1");
  }
  if (backend == CandidateBackendKind::kHnsw && options.index_ef == 0) {
    return Status::InvalidArgument("index_ef must be >= 1");
  }
  if (options.candidate_index->num_targets() != num_targets) {
    return Status::InvalidArgument(
        "candidate index was built over " +
        std::to_string(options.candidate_index->num_targets()) +
        " targets, not the pair's " + std::to_string(num_targets));
  }
  if (!TransformSupportsSparse(options.transform)) {
    return Status::InvalidArgument(
        "Sinkhorn needs the full coupling matrix; it has no sparse variant — "
        "drop the candidate index for this transform");
  }
  return Status::OK();
}

Status MatchEngine::CheckStageDeadline(const char* stage) const {
  if (!stage_deadline_.has_value()) return Status::OK();
  if (std::chrono::steady_clock::now() <= *stage_deadline_) {
    return Status::OK();
  }
  return Status::DeadlineExceeded(std::string("deadline expired before ") +
                                  stage + " stage");
}

Status MatchEngine::ComputeScoresInto(Matrix* scores,
                                      const MatchOptions& options,
                                      size_t row_begin) {
  // Chaos point: a spurious internal error (or injected latency) in the
  // scores pass, the hot path a flaky kernel or allocator would hit first.
  EM_INJECT_FAULT("engine.scores", StatusCode::kInternal);
  // A block of rows reads its transform's column statistic from the
  // snapshot; the first block to need it builds it in this very lease.
  std::span<const float> column_stat;
  if (scores->rows() < snapshot_->source().rows() &&
      options.transform != ScoreTransformKind::kNone) {
    EM_ASSIGN_OR_RETURN(
        column_stat,
        snapshot_->EnsureColumnStatistic(
            options.metric,
            options.transform == ScoreTransformKind::kCsls
                ? ColumnStatistic::kTopKMean
                : ColumnStatistic::kMax,
            options.csls_k, scores));
  }
  const SimilarityCache& cache = snapshot_->EnsureCache(options.metric);
  EM_RETURN_NOT_OK(ComputeSimilarityRange(
      snapshot_->source(), snapshot_->target(), options.metric, cache,
      row_begin, row_begin + scores->rows(), scores));
  EM_RETURN_NOT_OK(CheckStageDeadline("transform"));
  return ApplyScoreTransformInPlace(scores, options, workspace_.get(),
                                    column_stat);
}

Result<Assignment> MatchEngine::Match(const MatchOptions& options) {
  if (options.matcher == MatcherKind::kRl) {
    return Status::InvalidArgument(
        "the RL matcher needs KG context; use RunMatching or RlMatch");
  }
  // Reject an over-budget query before leasing anything: clean error, no
  // partial output, arena untouched. BeginBatch re-checks only the stage-1+2
  // subset, so this full-declaration check stays the authoritative one.
  EM_RETURN_NOT_OK(workspace_->CheckBudget(DeclaredWorkspaceBytes(options)));
  EM_ASSIGN_OR_RETURN(ScoredBatch batch, BeginBatch(options));
  return batch.Match(options);
}

Result<MatchEngine::ScoredBatch> MatchEngine::BeginBatch(
    const MatchOptions& options) {
  return BeginBatch(options, 0, snapshot_->source().rows());
}

Result<MatchEngine::ScoredBatch> MatchEngine::BeginBatch(
    const MatchOptions& options, size_t row_begin, size_t row_end) {
  const Matrix& source = snapshot_->source();
  const Matrix& target = snapshot_->target();
  const size_t n = source.rows();
  const size_t m = target.rows();
  if (row_begin >= row_end || row_end > n) {
    return Status::OutOfRange("MatchEngine: empty row range or one past n");
  }
  if (UsesCandidateIndex(options)) {
    EM_RETURN_NOT_OK(ValidateSparseQuery(options, m));
    const size_t nnz_cap = SparseNnzCap(options, n, m);
    EM_RETURN_NOT_OK(workspace_->CheckBudget(
        SparseScores::BytesFor(nnz_cap) +
        SparseTransformWorkspaceBytes(options, nnz_cap)));
    workspace_->ResetHighWater();
    EM_ASSIGN_OR_RETURN(ScratchMatrix values,
                        ScratchMatrix::Acquire(workspace_.get(), 1, nnz_cap));
    EM_ASSIGN_OR_RETURN(ScratchIndices cols,
                        ScratchIndices::Acquire(workspace_.get(), nnz_cap));
    SparseScores sparse = SparseScores::Borrowed(
        n, m, values.get().data(), cols.get().data(), nnz_cap);
    // Mirror the dense arm's chaos point: sparse scoring is the same
    // logical stage.
    EM_INJECT_FAULT("engine.scores", StatusCode::kInternal);
    const SimilarityCache& cache = snapshot_->EnsureCache(options.metric);
    ProbeParams probe;
    probe.nprobe = options.index_nprobe;
    probe.ef_search = options.index_ef;
    EM_RETURN_NOT_OK(options.candidate_index->FillSparseScores(
        source, target, options.metric, cache, options.num_candidates, probe,
        &sparse));
    EM_RETURN_NOT_OK(CheckStageDeadline("transform"));
    EM_RETURN_NOT_OK(ApplySparseScoreTransformInPlace(&sparse, options,
                                                      workspace_.get()));
    return ScoredBatch(this, std::move(values), std::move(cols),
                       std::move(sparse), ScoreSignature::Of(options),
                       row_begin, row_end);
  }
  // A row-local query over part of the rows scores only those rows.
  const bool ranged = IsRowLocal(options) && row_end - row_begin < n;
  const size_t rows = ranged ? row_end - row_begin : n;
  EM_RETURN_NOT_OK(workspace_->CheckBudget(
      rows * m * sizeof(float) + TransformWorkspaceBytes(options, rows, m)));
  workspace_->ResetHighWater();
  EM_ASSIGN_OR_RETURN(ScratchMatrix scores,
                      ScratchMatrix::Acquire(workspace_.get(), rows, m));
  EM_RETURN_NOT_OK(
      ComputeScoresInto(&scores.get(), options, ranged ? row_begin : 0));
  Matrix answer_rows = Matrix::Borrowed(
      scores.get().Row(ranged ? 0 : row_begin).data(), row_end - row_begin, m);
  return ScoredBatch(this, std::move(scores), std::move(answer_rows),
                     ScoreSignature::Of(options), row_begin, row_end);
}

Result<Assignment> MatchEngine::ScoredBatch::Match(const MatchOptions& options) {
  if (options.matcher == MatcherKind::kRl) {
    return Status::InvalidArgument(
        "the RL matcher needs KG context; use RunMatching or RlMatch");
  }
  if (!(ScoreSignature::Of(options) == signature_)) {
    return Status::InvalidArgument(
        "ScoredBatch::Match: options carry a different score signature than "
        "the batch was computed with");
  }
  EM_RETURN_NOT_OK(engine_->CheckStageDeadline("decision"));
  Workspace* workspace = engine_->workspace_.get();
  if (!sparse_.has_value() &&
      scores_->get().rows() < engine_->source().rows()) {
    if (!IsRowLocal(options)) {
      return Status::InvalidArgument(
          "ScoredBatch::Match: the batch scored only its answer rows; this "
          "matcher needs the full pair");
    }
    return MatchScores(rows_, options, workspace);
  }
  // Decide over the full pair, then keep the answer rows.
  EM_ASSIGN_OR_RETURN(Assignment full,
                      sparse_.has_value()
                          ? MatchSparseScores(*sparse_, options)
                          : MatchScores(scores_->get(), options, workspace));
  std::vector<int32_t>& targets = full.target_of_source;
  targets.erase(targets.begin() + row_end_, targets.end());
  targets.erase(targets.begin(), targets.begin() + row_begin_);
  return full;
}

Result<Matrix> MatchEngine::TransformedScores(const MatchOptions& options) {
  if (UsesCandidateIndex(options)) {
    return Status::InvalidArgument(
        "TransformedScores returns a dense matrix; use BeginBatch and "
        "sparse_scores() for candidate-index queries");
  }
  EM_ASSIGN_OR_RETURN(ScoredBatch batch, BeginBatch(options));
  return Matrix(batch.scores());  // deep owned copy; the lease is recycled
}

}  // namespace entmatcher
