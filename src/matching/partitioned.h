#ifndef ENTMATCHER_MATCHING_PARTITIONED_H_
#define ENTMATCHER_MATCHING_PARTITIONED_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "matching/types.h"

namespace entmatcher {

/// Options for partition-based matching.
struct PartitionedOptions {
  /// Number of partitions (clusters) the candidate space is split into.
  size_t num_partitions = 8;
  /// k-means iterations for the partitioner.
  size_t kmeans_iterations = 10;
  /// Seed for centroid initialization.
  uint64_t seed = 5;
  /// The matching pipeline executed inside each partition.
  MatchOptions block_options;
};

/// Partition assignment produced by the co-clustering step.
struct Partitioning {
  /// partition_of_source[i] / partition_of_target[j] in [0, num_partitions).
  std::vector<uint32_t> partition_of_source;
  std::vector<uint32_t> partition_of_target;
  size_t num_partitions = 0;

  /// (source block x target block) cell product per partition — the score
  /// matrix each block run materializes.
  std::vector<size_t> BlockCells() const;
};

/// Assignment plus the partition statistics a run observed. The histogram is
/// log2-bucketed over block cell products: bucket b counts partitions whose
/// (src rows x tgt cols) product lies in [2^b, 2^(b+1)); empty blocks land
/// in bucket 0. Skew — many near-empty buckets plus one huge one — is the
/// failure mode the candidate index exists to avoid.
struct PartitionedMatchResult {
  Assignment assignment;
  size_t num_partitions = 0;
  size_t largest_block_product = 0;
  std::vector<size_t> block_cells_histogram;
};

/// Co-clusters source and target candidates into shared partitions by
/// running k-means on the *union* of both embedding sets: entities that
/// would match land in the same cluster because their embeddings are close.
/// This is the CPS idea of ClusterEA [15], the scalability exploration the
/// paper points to in Sec. 6 (4).
Result<Partitioning> CoClusterCandidates(const Matrix& source,
                                         const Matrix& target,
                                         const PartitionedOptions& options);

/// Partition-based matching: co-cluster, run the configured pipeline inside
/// every (source-block, target-block) pair independently, and stitch the
/// block assignments together. Peak workspace drops from O(n*m) to
/// O(max-block^2), which is what lets the quadratic-memory algorithms
/// (Sinkhorn, Hungarian) run at scales where the dense formulation cannot.
///
/// The price is recall lost to cross-partition gold pairs — exactly the
/// trade-off [15] manages; the ablation bench quantifies it.
Result<Assignment> PartitionedMatch(const Matrix& source, const Matrix& target,
                                    const PartitionedOptions& options);

/// PartitionedMatch plus the partition-size statistics of the run, so block
/// skew is observable (bench_table6 prints the histogram).
Result<PartitionedMatchResult> PartitionedMatchWithStats(
    const Matrix& source, const Matrix& target,
    const PartitionedOptions& options);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_PARTITIONED_H_
