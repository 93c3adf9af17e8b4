#include "matching/partitioned.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/kmeans.h"
#include "matching/engine.h"
#include "matching/pipeline.h"

namespace entmatcher {

std::vector<size_t> Partitioning::BlockCells() const {
  std::vector<size_t> src_count(num_partitions, 0);
  std::vector<size_t> tgt_count(num_partitions, 0);
  for (uint32_t p : partition_of_source) ++src_count[p];
  for (uint32_t p : partition_of_target) ++tgt_count[p];
  std::vector<size_t> cells(num_partitions, 0);
  for (size_t p = 0; p < num_partitions; ++p) {
    cells[p] = src_count[p] * tgt_count[p];
  }
  return cells;
}

Result<Partitioning> CoClusterCandidates(const Matrix& source,
                                         const Matrix& target,
                                         const PartitionedOptions& options) {
  if (source.rows() == 0 || target.rows() == 0) {
    return Status::InvalidArgument("CoClusterCandidates: empty embeddings");
  }
  if (source.cols() != target.cols()) {
    return Status::InvalidArgument(
        "CoClusterCandidates: embedding dims differ");
  }
  if (options.num_partitions == 0) {
    return Status::InvalidArgument(
        "CoClusterCandidates: num_partitions must be >= 1");
  }
  const size_t n = source.rows();
  const size_t m = target.rows();
  const size_t k = std::min(options.num_partitions, std::min(n, m));

  // Stack both sides so matching entities co-cluster.
  Matrix stacked(n + m, source.cols());
  for (size_t i = 0; i < n; ++i) {
    std::copy(source.Row(i).begin(), source.Row(i).end(),
              stacked.Row(i).begin());
  }
  for (size_t j = 0; j < m; ++j) {
    std::copy(target.Row(j).begin(), target.Row(j).end(),
              stacked.Row(n + j).begin());
  }
  Rng rng(options.seed);
  const std::vector<uint32_t> clusters =
      CosineKMeans(stacked, k, options.kmeans_iterations, &rng).assignment;

  Partitioning partitioning;
  partitioning.num_partitions = k;
  partitioning.partition_of_source.assign(clusters.begin(),
                                          clusters.begin() + n);
  partitioning.partition_of_target.assign(clusters.begin() + n,
                                          clusters.end());
  return partitioning;
}

Result<PartitionedMatchResult> PartitionedMatchWithStats(
    const Matrix& source, const Matrix& target,
    const PartitionedOptions& options) {
  if (options.block_options.matcher == MatcherKind::kRl) {
    return Status::InvalidArgument(
        "PartitionedMatch: kRl is not supported inside blocks");
  }
  EM_ASSIGN_OR_RETURN(Partitioning partitioning,
                      CoClusterCandidates(source, target, options));

  PartitionedMatchResult result;
  result.num_partitions = partitioning.num_partitions;
  for (size_t cells : partitioning.BlockCells()) {
    result.largest_block_product = std::max(result.largest_block_product, cells);
    size_t bucket = 0;
    for (size_t v = cells; v > 1; v >>= 1) ++bucket;
    if (bucket >= result.block_cells_histogram.size()) {
      result.block_cells_histogram.resize(bucket + 1, 0);
    }
    ++result.block_cells_histogram[bucket];
  }

  Assignment& assignment = result.assignment;
  assignment.target_of_source.assign(source.rows(), Assignment::kUnmatched);

  const size_t num_partitions = partitioning.num_partitions;
  std::vector<std::vector<uint32_t>> src_rows(num_partitions);
  std::vector<std::vector<uint32_t>> tgt_cols(num_partitions);
  for (size_t i = 0; i < source.rows(); ++i) {
    src_rows[partitioning.partition_of_source[i]].push_back(
        static_cast<uint32_t>(i));
  }
  for (size_t j = 0; j < target.rows(); ++j) {
    tgt_cols[partitioning.partition_of_target[j]].push_back(
        static_cast<uint32_t>(j));
  }

  // Blocks are disjoint in both source rows and target columns, so each block
  // match is independent and they dispatch across the pool; nested kernels
  // inside MatchEmbeddings degrade to serial automatically. Errors are
  // collected per block and reported after the sweep.
  std::vector<Status> block_status(num_partitions, Status::OK());
  ParallelFor(0, num_partitions, 1, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      const std::vector<uint32_t>& rows = src_rows[p];
      const std::vector<uint32_t>& cols = tgt_cols[p];
      if (rows.empty() || cols.empty()) continue;

      Matrix block_src(rows.size(), source.cols());
      for (size_t i = 0; i < rows.size(); ++i) {
        std::copy(source.Row(rows[i]).begin(), source.Row(rows[i]).end(),
                  block_src.Row(i).begin());
      }
      Matrix block_tgt(cols.size(), target.cols());
      for (size_t j = 0; j < cols.size(); ++j) {
        std::copy(target.Row(cols[j]).begin(), target.Row(cols[j]).end(),
                  block_tgt.Row(j).begin());
      }

      // Per-block engine: the gathered block embeddings move straight into
      // it (no second copy) and each block gets its own workspace, so
      // parallel blocks never share arena state.
      Result<MatchEngine> block_engine = MatchEngine::Create(
          std::move(block_src), std::move(block_tgt), options.block_options);
      if (!block_engine.ok()) {
        block_status[p] = block_engine.status();
        continue;
      }
      Result<Assignment> block_result = block_engine->Match();
      if (!block_result.ok()) {
        block_status[p] = block_result.status();
        continue;
      }
      const Assignment& block_assignment = block_result.value();
      for (size_t i = 0; i < rows.size(); ++i) {
        const int32_t j = block_assignment.target_of_source[i];
        if (j == Assignment::kUnmatched) continue;
        assignment.target_of_source[rows[i]] =
            static_cast<int32_t>(cols[static_cast<size_t>(j)]);
      }
    }
  });
  for (const Status& status : block_status) EM_RETURN_NOT_OK(status);
  return result;
}

Result<Assignment> PartitionedMatch(const Matrix& source, const Matrix& target,
                                    const PartitionedOptions& options) {
  EM_ASSIGN_OR_RETURN(PartitionedMatchResult result,
                      PartitionedMatchWithStats(source, target, options));
  return std::move(result.assignment);
}

}  // namespace entmatcher
