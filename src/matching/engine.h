#ifndef ENTMATCHER_MATCHING_ENGINE_H_
#define ENTMATCHER_MATCHING_ENGINE_H_

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/status.h"
#include "la/matrix.h"
#include "la/similarity.h"
#include "la/sparse.h"
#include "la/workspace.h"
#include "matching/snapshot.h"
#include "matching/types.h"

namespace entmatcher {

/// A reusable matching session over one prepared (source, target) embedding
/// pair.
///
/// The one-shot pipeline (ComputeScores → MatchScores) reallocates every
/// similarity, transform, and decision buffer per call; repeated-evaluation
/// workloads — preset sweeps, blocked matching, serving — pay that cost on
/// every query. A MatchEngine is constructed once and queried many times:
/// after the first query a warm engine performs no further allocation.
///
/// Since the snapshot refactor the engine splits into two halves with very
/// different mutability:
///   - the *read path* — embeddings, candidate index, per-metric similarity
///     caches — lives in an immutable, ref-counted
///     PairSnapshot that any number of engines (on any number of threads)
///     share without synchronization;
///   - the *per-session state* — the workspace arena and the stage deadline
///     — stays private to this engine, which is why an engine itself is
///     still single-threaded.
/// `Create` keeps the classic owning constructor (it builds a private
/// snapshot); `Over` is the serving path: one snapshot, K worker engines.
///
/// Hard invariant: every query is bit-identical to the one-shot
/// MatchEmbeddings path at every thread count (pinned by the engine-reuse
/// suite in tests/matching/engine_test.cc).
///
/// Memory is first-class: each query's matrix-scale needs are declared up
/// front (DeclaredWorkspaceBytes) and pre-checked against the workspace
/// budget from MatchOptions::workspace_budget_bytes, so an infeasible query
/// — the paper's Table 6 "Mem: No" verdict, e.g. SMat at DWY100K scale —
/// fails with a clean kResourceExhausted before touching any buffer, with no
/// partial output.
///
/// Not thread-safe; one engine per thread. Parallel block matching
/// (PartitionedMatch) builds one engine per block; the serving worker pool
/// builds one engine per (worker, pair) over the shared snapshot.
class MatchEngine {
 public:
  /// Prepares a session: takes ownership of the embeddings (wrapping them in
  /// a private snapshot), validates shapes, precomputes options.metric's
  /// similarity statistics, and arms the workspace budget from
  /// options.workspace_budget_bytes (0 = unlimited).
  static Result<MatchEngine> Create(Matrix source, Matrix target,
                                    const MatchOptions& options);

  /// Prepares a session over a shared snapshot — the multi-worker serving
  /// path. The snapshot's embeddings and derived caches are read in place
  /// (and shared with every other engine over the same snapshot); only the
  /// workspace arena is private. `recycled` optionally donates a previous
  /// engine's arena so a worker rebuilding for snapshot v+1 keeps its warm
  /// slabs: it is reused when idle (no outstanding leases), re-armed to
  /// options.workspace_budget_bytes, and otherwise replaced by a fresh one.
  static Result<MatchEngine> Over(std::shared_ptr<const PairSnapshot> snapshot,
                                  const MatchOptions& options,
                                  std::unique_ptr<Workspace> recycled =
                                      nullptr);

  MatchEngine(MatchEngine&&) = default;
  MatchEngine& operator=(MatchEngine&&) = default;
  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  /// Runs the full pipeline (similarity → transform → decision) with the
  /// session options.
  Result<Assignment> Match() { return Match(options_); }

  /// Same, with per-query options — e.g. several presets through one
  /// session. Similarity statistics for metrics not yet seen are built and
  /// memoized on the snapshot; the budget is the one armed at Create. Not
  /// usable with matcher == kRl (needs KG context; see RunMatching).
  Result<Assignment> Match(const MatchOptions& options);

  /// A leased, transformed score matrix shared by a batch of queries with
  /// the same ScoreSignature: stages 1+2 run once at BeginBatch, then any
  /// number of decision stages run against the shared scores. This is the
  /// serving layer's micro-batching primitive — for B coalesced queries the
  /// O(n·m·d) similarity + transform work is paid once instead of B times.
  /// Each decision is bit-identical to a solo Match with the same options
  /// (both run MatchScores on bit-identical scores).
  ///
  /// A batch answers a range of source rows (all rows by default): scores()
  /// and every Match hold those rows only, bit-identical to the same rows of
  /// the full answer.
  ///
  /// Move-only; destruction returns the score lease to the engine's arena.
  /// The engine must outlive the batch, and no other query may run on *this
  /// engine* while a batch is open (the arena is single-threaded by design;
  /// other engines over the same snapshot are unaffected).
  class ScoredBatch {
   public:
    ScoredBatch(ScoredBatch&&) = default;
    ScoredBatch& operator=(ScoredBatch&&) = default;
    ScoredBatch(const ScoredBatch&) = delete;
    ScoredBatch& operator=(const ScoredBatch&) = delete;

    /// The answer rows of the shared transformed score matrix (answer rows
    /// × target.rows()). Dense batches only; a sparse batch has no dense
    /// matrix (that is the point) — check is_sparse() first.
    const Matrix& scores() const { return rows_; }

    /// True when the batch was scored over candidate lists (the query
    /// options carried a candidate_index).
    bool is_sparse() const { return sparse_.has_value(); }

    /// The shared transformed candidate scores of the full pair (sparse
    /// batches only).
    const SparseScores& sparse_scores() const { return *sparse_; }

    /// Runs only the decision stage of `options` on the shared scores, for
    /// the answer rows. options must carry the batch's ScoreSignature
    /// (kInvalidArgument otherwise — a mis-grouped query would silently
    /// decide on the wrong transform) and a non-RL matcher, row-local if
    /// the batch scored only its answer rows. The signature folds in the
    /// candidate index configuration, so dense options cannot decide on a
    /// sparse batch or vice versa.
    Result<Assignment> Match(const MatchOptions& options);

   private:
    friend class MatchEngine;
    ScoredBatch(MatchEngine* engine, ScratchMatrix scores, Matrix rows,
                const ScoreSignature& signature, size_t row_begin,
                size_t row_end)
        : engine_(engine), scores_(std::move(scores)), rows_(std::move(rows)),
          signature_(signature), row_begin_(row_begin), row_end_(row_end) {}
    ScoredBatch(MatchEngine* engine, ScratchMatrix values, ScratchIndices cols,
                SparseScores sparse, const ScoreSignature& signature,
                size_t row_begin, size_t row_end)
        : engine_(engine), sparse_values_(std::move(values)),
          sparse_cols_(std::move(cols)), sparse_(std::move(sparse)),
          signature_(signature), row_begin_(row_begin), row_end_(row_end) {}

    MatchEngine* engine_;
    // The full pair's scores, or only the answer rows' (row-local); rows_
    // borrows the answer rows from it (arena slabs do not move).
    std::optional<ScratchMatrix> scores_;
    Matrix rows_;
    // Sparse batches: the arena leases backing sparse_'s entry storage.
    // sparse_ is declared after them so it is destroyed first (it borrows
    // their buffers); arena slab addresses are stable, so the borrowed
    // pointers survive ScoredBatch moves.
    std::optional<ScratchMatrix> sparse_values_;
    std::optional<ScratchIndices> sparse_cols_;
    std::optional<SparseScores> sparse_;
    ScoreSignature signature_;
    size_t row_begin_ = 0;
    size_t row_end_ = 0;
  };

  /// True when rows [lo, hi) of `options`' answer need only those rows'
  /// similarity plus one column statistic of the snapshot: dense DInf, CSLS
  /// or RInf-wr with the greedy matcher (a top-k query runs no matcher; pass
  /// it as greedy). Such a range costs O((hi−lo)·m·d); any other query
  /// scores the full pair whatever rows it answers.
  static bool IsRowLocal(const MatchOptions& options);

  /// Opens a batch answering source rows [row_begin, row_end) (one-argument
  /// form: every row): pre-checks the stage-1+2 bytes (score matrix +
  /// transform scratch) against the budget, starts a new high-water region,
  /// and runs similarity + transform once. A row-local query over part of
  /// the rows leases and scores only those rows, reading its column
  /// statistic from the snapshot (PairSnapshot::EnsureColumnStatistic,
  /// built in that lease on first use). Decision-stage bytes are checked per
  /// ScoredBatch::Match, exactly as the matcher's leases demand them;
  /// serving-layer admission pre-checks the full per-query declaration.
  /// kOutOfRange for an empty range or one past the source rows.
  Result<ScoredBatch> BeginBatch(const MatchOptions& options);
  Result<ScoredBatch> BeginBatch(const MatchOptions& options, size_t row_begin,
                                 size_t row_end);

  /// Stages 1+2 only: similarity + transform, returned as an owned copy (the
  /// arena buffer is released before returning). For inspection and the
  /// bit-identity suite; Match() is the allocation-free hot path.
  Result<Matrix> TransformedScores(const MatchOptions& options);

  /// Matrix-scale workspace bytes a Match(options) query needs at its peak:
  /// the score matrix plus the larger of the transform scratch and the
  /// decision-stage tables. This is what Match pre-checks against the
  /// budget.
  size_t DeclaredWorkspaceBytes(const MatchOptions& options) const {
    return DeclaredWorkspaceBytesFor(snapshot_->source().rows(),
                                     snapshot_->target().rows(), options, 0,
                                     snapshot_->source().rows());
  }

  /// The same declaration for a query answering rows [row_begin, row_end) of
  /// an (n × m) pair, without an engine — what the serving layer's admission
  /// check uses before any engine exists. A row-local range declares only
  /// its own rows.
  static size_t DeclaredWorkspaceBytesFor(size_t n, size_t m,
                                          const MatchOptions& options,
                                          size_t row_begin, size_t row_end);

  /// The rules a candidate-index query (options.candidate_index set) must
  /// meet against a pair with `num_targets` targets, all kInvalidArgument:
  /// num_candidates >= 1, a non-zero probe knob for the index's backend, an
  /// index built over exactly num_targets targets, and a transform with a
  /// sparse variant. BeginBatch applies them before leasing anything; the
  /// serving layer's admission applies the same function before queueing.
  static Status ValidateSparseQuery(const MatchOptions& options,
                                    size_t num_targets);

  /// Arms a deadline checked *between* pipeline stages (after similarity /
  /// sparse fill, before transform; and before the decision stage): work on
  /// behalf of an expired request stops at the next stage boundary with
  /// kDeadlineExceeded instead of finishing doomed kernels. Stages are never
  /// interrupted mid-kernel, so a passing query's arithmetic — and its
  /// bit-identity to the one-shot path — is untouched. Cleared by
  /// ClearStageDeadline; a serving worker arms the *latest* deadline of a
  /// batch so a short-deadline rider cannot abort a batch that still has
  /// live requests.
  void SetStageDeadline(std::chrono::steady_clock::time_point deadline) {
    stage_deadline_ = deadline;
  }
  void ClearStageDeadline() { stage_deadline_.reset(); }

  const Matrix& source() const { return snapshot_->source(); }
  const Matrix& target() const { return snapshot_->target(); }
  const MatchOptions& options() const { return options_; }

  /// The immutable snapshot this engine reads (never null).
  const std::shared_ptr<const PairSnapshot>& snapshot() const {
    return snapshot_;
  }

  /// The session arena; high_water_bytes() after a query is that query's
  /// matrix-scale peak (reset at query start).
  const Workspace& workspace() const { return *workspace_; }
  Workspace* mutable_workspace() { return workspace_.get(); }

  /// Surrenders the arena for recycling into a successor engine (see Over).
  /// The engine is unusable afterwards; destroy it.
  std::unique_ptr<Workspace> TakeWorkspace() { return std::move(workspace_); }

 private:
  MatchEngine(std::shared_ptr<const PairSnapshot> snapshot,
              const MatchOptions& options,
              std::unique_ptr<Workspace> workspace);

  /// Similarity + transform of source rows [row_begin, row_begin +
  /// scores->rows()) into `scores` (an arena lease with target-row columns).
  Status ComputeScoresInto(Matrix* scores, const MatchOptions& options,
                           size_t row_begin);

  /// kDeadlineExceeded when an armed stage deadline has passed.
  Status CheckStageDeadline(const char* stage) const;

  std::shared_ptr<const PairSnapshot> snapshot_;
  MatchOptions options_;
  std::unique_ptr<Workspace> workspace_;
  std::optional<std::chrono::steady_clock::time_point> stage_deadline_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_ENGINE_H_
