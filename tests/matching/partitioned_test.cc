#include "matching/partitioned.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "matching/pipeline.h"

namespace entmatcher {
namespace {

// Matched embedding spaces: target row perm[i] is a noisy copy of source
// row i.
struct ToyPair {
  Matrix source;
  Matrix target;
  std::vector<uint32_t> gold;
};

ToyPair MakeToyPair(size_t n, size_t dim, double noise, uint64_t seed) {
  Rng rng(seed);
  ToyPair toy;
  toy.source = Matrix(n, dim);
  toy.target = Matrix(n, dim);
  toy.gold.resize(n);
  for (size_t i = 0; i < n; ++i) toy.gold[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&toy.gold);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      const float v = static_cast<float>(rng.NextGaussian());
      toy.source.At(i, d) = v;
      toy.target.At(toy.gold[i], d) =
          v + static_cast<float>(noise * rng.NextGaussian());
    }
  }
  return toy;
}

double Accuracy(const Assignment& a, const std::vector<uint32_t>& gold) {
  size_t correct = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.target_of_source[i] == static_cast<int32_t>(gold[i])) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(a.size());
}

TEST(CoClusterTest, PartitionsCoverBothSides) {
  ToyPair toy = MakeToyPair(120, 16, 0.2, 3);
  PartitionedOptions options;
  options.num_partitions = 4;
  auto partitioning = CoClusterCandidates(toy.source, toy.target, options);
  ASSERT_TRUE(partitioning.ok());
  EXPECT_EQ(partitioning->partition_of_source.size(), 120u);
  EXPECT_EQ(partitioning->partition_of_target.size(), 120u);
  for (uint32_t p : partitioning->partition_of_source) {
    EXPECT_LT(p, partitioning->num_partitions);
  }
  const std::vector<size_t> cells = partitioning->BlockCells();
  const size_t largest = *std::max_element(cells.begin(), cells.end());
  EXPECT_GT(largest, 0u);
  EXPECT_LT(largest, 120u * 120u);
}

TEST(CoClusterTest, MatchingEntitiesCoClusterMostly) {
  ToyPair toy = MakeToyPair(200, 16, 0.1, 7);
  PartitionedOptions options;
  options.num_partitions = 4;
  auto partitioning = CoClusterCandidates(toy.source, toy.target, options);
  ASSERT_TRUE(partitioning.ok());
  size_t together = 0;
  for (size_t i = 0; i < 200; ++i) {
    if (partitioning->partition_of_source[i] ==
        partitioning->partition_of_target[toy.gold[i]]) {
      ++together;
    }
  }
  // With low noise, the vast majority of gold pairs share a partition.
  EXPECT_GT(together, 160u);
}

TEST(PartitionedMatchTest, NearDenseQualityOnEasyInstance) {
  ToyPair toy = MakeToyPair(300, 16, 0.25, 11);
  MatchOptions dense;
  auto dense_result = MatchEmbeddings(toy.source, toy.target, dense);
  ASSERT_TRUE(dense_result.ok());
  const double dense_acc = Accuracy(*dense_result, toy.gold);

  PartitionedOptions options;
  options.num_partitions = 5;
  auto partitioned = PartitionedMatch(toy.source, toy.target, options);
  ASSERT_TRUE(partitioned.ok());
  const double part_acc = Accuracy(*partitioned, toy.gold);
  EXPECT_GT(part_acc, 0.8 * dense_acc);
}

TEST(PartitionedMatchTest, WorksWithHungarianBlocks) {
  ToyPair toy = MakeToyPair(150, 16, 0.3, 13);
  PartitionedOptions options;
  options.num_partitions = 4;
  options.block_options = MakePreset(AlgorithmPreset::kHungarian);
  auto a = PartitionedMatch(toy.source, toy.target, options);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(Accuracy(*a, toy.gold), 0.5);
  // 1-to-1 within blocks implies 1-to-1 globally.
  std::vector<uint8_t> used(150, 0);
  for (int32_t j : a->target_of_source) {
    if (j == Assignment::kUnmatched) continue;
    EXPECT_EQ(used[static_cast<size_t>(j)], 0);
    used[static_cast<size_t>(j)] = 1;
  }
}

TEST(PartitionedMatchTest, ReducesPeakWorkspace) {
  ToyPair toy = MakeToyPair(600, 16, 0.2, 17);
  MemoryTracker& tracker = MemoryTracker::Global();

  const size_t base = tracker.current_bytes();
  tracker.ResetPeak();
  auto dense = MatchEmbeddings(toy.source, toy.target, MatchOptions());
  ASSERT_TRUE(dense.ok());
  const size_t dense_peak = tracker.peak_bytes() - base;

  tracker.ResetPeak();
  PartitionedOptions options;
  options.num_partitions = 8;
  auto partitioned = PartitionedMatch(toy.source, toy.target, options);
  ASSERT_TRUE(partitioned.ok());
  const size_t part_peak = tracker.peak_bytes() - base;

  EXPECT_LT(part_peak, dense_peak);
}

TEST(PartitionedMatchTest, Validation) {
  ToyPair toy = MakeToyPair(20, 8, 0.2, 19);
  PartitionedOptions options;
  options.num_partitions = 0;
  EXPECT_FALSE(PartitionedMatch(toy.source, toy.target, options).ok());
  options = PartitionedOptions();
  options.block_options.matcher = MatcherKind::kRl;
  EXPECT_FALSE(PartitionedMatch(toy.source, toy.target, options).ok());
  EXPECT_FALSE(
      CoClusterCandidates(Matrix(), toy.target, PartitionedOptions()).ok());
}

TEST(PartitionedMatchTest, SinglePartitionEqualsDense) {
  ToyPair toy = MakeToyPair(80, 8, 0.3, 23);
  PartitionedOptions options;
  options.num_partitions = 1;
  auto partitioned = PartitionedMatch(toy.source, toy.target, options);
  auto dense = MatchEmbeddings(toy.source, toy.target, options.block_options);
  ASSERT_TRUE(partitioned.ok() && dense.ok());
  EXPECT_EQ(partitioned->target_of_source, dense->target_of_source);
}

}  // namespace
}  // namespace entmatcher
