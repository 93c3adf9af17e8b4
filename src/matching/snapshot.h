#ifndef ENTMATCHER_MATCHING_SNAPSHOT_H_
#define ENTMATCHER_MATCHING_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "la/similarity.h"

namespace entmatcher {

class CandidateIndex;

/// A statistic over every column of a pair's similarity matrix: the column
/// max (RInf-wr) or the column top-k mean (CSLS's phi_t).
enum class ColumnStatistic { kMax, kTopKMean };

/// An immutable, versioned bundle of everything the read path of matching
/// needs for one (source, target) embedding pair: the embedding matrices, an
/// optional candidate index, and the per-metric similarity caches.
///
/// PairSnapshot is the unit of publication in the read-mostly serving
/// architecture: K worker threads execute scores passes against a snapshot
/// concurrently with zero synchronization, because nothing in it ever
/// changes after Build. A hot swap builds a *new* snapshot and publishes it
/// through a SnapshotRegistry; in-flight passes keep reading the version
/// they pinned, so a batch never mixes v and v+1 data.
///
/// The similarity caches and column statistics are derived data: logically
/// part of the immutable state, but built lazily on first use (a pair served
/// only with cosine never pays for the euclidean cache). Laziness is hidden
/// behind std::call_once (a mutex for the column statistics), so concurrent
/// first readers race benignly — one builds, the rest wait. Derived
/// state lives in a Core shared between snapshots of the same pair, so
/// WithIndex (and any future derivation that keeps the embeddings) costs two
/// shared_ptr copies, not a matrix copy or a cache rebuild.
///
/// Lifetime: always held as std::shared_ptr<const PairSnapshot>, and a
/// snapshot lives exactly as long as its last reference. Owners are the
/// registry, executing batches and worker engines. A raw pointer into a
/// snapshot (the degrade path's rewritten candidate_index, borrowed cache
/// rows) is only ever held by a pass that also holds a reference to that
/// same snapshot, so it cannot outlive it.
class PairSnapshot {
 public:
  /// Validates shapes and wraps the embeddings into version-0 (unpublished)
  /// snapshot. Derived caches start empty.
  static Result<std::shared_ptr<PairSnapshot>> Build(Matrix source,
                                                     Matrix target);

  PairSnapshot(const PairSnapshot&) = delete;
  PairSnapshot& operator=(const PairSnapshot&) = delete;

  /// A sibling snapshot sharing this one's Core (embeddings + derived
  /// caches) with `index` attached (null detaches). Cheap: no matrix copy,
  /// already-built caches stay built.
  std::shared_ptr<PairSnapshot> WithIndex(
      std::shared_ptr<const CandidateIndex> index) const;

  const Matrix& source() const { return core_->source; }
  const Matrix& target() const { return core_->target; }

  /// The attached candidate index, or nullptr. The raw pointer is valid for
  /// the snapshot's lifetime — exactly what MatchOptions::candidate_index
  /// wants, provided the caller pins the snapshot for the query's duration.
  const CandidateIndex* index() const { return index_.get(); }
  const std::shared_ptr<const CandidateIndex>& shared_index() const {
    return index_;
  }

  /// Version stamped at publication (0 = never published). Monotonic per
  /// registry name; the result-cache key and the mixed-batch assertions hang
  /// off it.
  uint64_t version() const { return version_; }

  /// The similarity cache for `metric`, building it on first use. Safe from
  /// any number of threads; after the first call for a metric this is a
  /// wait-free const read.
  const SimilarityCache& EnsureCache(SimilarityMetric metric) const;

  /// `statistic` (k is read by kTopKMean only) over every column of the
  /// similarity matrix under `metric`: what a row-range query reads besides
  /// its rows. Built once per (metric, statistic, k) by sweeping all source
  /// rows in ascending order through `tile` (caller scratch with
  /// target().rows() columns, clobbered) into ColMax's / ColTopKMean's
  /// accumulator, so its bytes equal theirs over the full matrix; concurrent
  /// first callers wait for the one build, and a failed build publishes
  /// nothing. kInvalidArgument for kTopKMean with k = 0. The span lives as
  /// long as the snapshot.
  Result<std::span<const float>> EnsureColumnStatistic(
      SimilarityMetric metric, ColumnStatistic statistic, size_t k,
      Matrix* tile) const;

 private:
  friend class SnapshotRegistry;

  /// Embeddings + lazily built derived state, shared between sibling
  /// snapshots (WithIndex). `mutable` + call_once keeps the lazy build
  /// behind a const, thread-safe facade: a PairSnapshot is immutable in the
  /// sense that matters — every read of the same field returns the same
  /// bytes forever.
  struct Core {
    Matrix source;
    Matrix target;

    // One slot per SimilarityMetric value.
    mutable std::array<std::once_flag, 3> cache_once;
    mutable std::array<std::optional<SimilarityCache>, 3> caches;

    // Column statistics by (metric slot, statistic, k); an entry is only
    // inserted complete and never changes.
    mutable std::mutex statistics_mu;
    mutable std::map<std::tuple<size_t, ColumnStatistic, size_t>,
                     std::vector<float>>
        statistics;
  };

  explicit PairSnapshot(std::shared_ptr<const Core> core,
                        std::shared_ptr<const CandidateIndex> index)
      : core_(std::move(core)), index_(std::move(index)) {}

  std::shared_ptr<const Core> core_;
  std::shared_ptr<const CandidateIndex> index_;
  uint64_t version_ = 0;  // stamped by SnapshotRegistry::Publish
};

/// The publication point of the snapshot architecture: name → current
/// snapshot.
///
/// Readers Acquire() a shared_ptr under a brief mutex — their batches run
/// entirely against that pinned version. Publish() stamps the next version
/// number, swaps the current pointer, and drops the registry's reference to
/// the displaced version after unlocking: that version is destroyed when the
/// last pass that pinned it lets go of its reference, never mid-pass.
class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Atomically installs `snapshot` as the current version of `name`,
  /// stamping version = max(previous + 1, min_version) (previous = 0 for a
  /// new name), and releases the registry's reference to the displaced one.
  /// The floor lets a fleet-wide swap pin one target version across shards
  /// whose local counters have skewed (e.g. after a partial fan-out), so a
  /// repair swap can re-converge them. Fault point "snapshot.publish" fires
  /// *before* the swap, so a failed publish leaves the old snapshot serving
  /// untouched. Returns the stamped version.
  Result<uint64_t> Publish(const std::string& name,
                           std::shared_ptr<PairSnapshot> snapshot,
                           uint64_t min_version = 0);

  /// The current snapshot of `name`, or nullptr. The returned reference
  /// keeps the snapshot alive regardless of later publishes.
  std::shared_ptr<const PairSnapshot> Acquire(const std::string& name) const;

  /// Loaded pair names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const PairSnapshot>> current_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_SNAPSHOT_H_
