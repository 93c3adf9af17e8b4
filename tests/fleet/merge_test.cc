// Gather-side merge rules: the two hard guarantees (no mixed-version
// splices, deterministic stable order) plus the corrupt-shard tripwires.

#include "fleet/merge.h"

#include <gtest/gtest.h>

namespace entmatcher {
namespace {

RangePart Part(size_t begin, size_t end, uint64_t version,
               std::vector<int32_t> values, std::vector<float> scores = {}) {
  RangePart part;
  part.row_begin = begin;
  part.row_end = end;
  part.version = version;
  part.values = std::move(values);
  part.scores = std::move(scores);
  return part;
}

TEST(MergeTest, AssignmentsConcatenateByPosition) {
  Result<std::vector<int32_t>> merged = MergeAssignments(
      4, {Part(2, 4, 1, {30, 40}), Part(0, 2, 1, {10, 20})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, (std::vector<int32_t>{10, 20, 30, 40}));
}

TEST(MergeTest, EmptyPartsIsUnavailable) {
  EXPECT_EQ(MergeAssignments(4, {}).status().code(),
            StatusCode::kUnavailable);
}

TEST(MergeTest, MixedVersionsRefused) {
  Result<std::vector<int32_t>> merged = MergeAssignments(
      4, {Part(0, 2, 1, {10, 20}), Part(2, 4, 2, {30, 40})});
  EXPECT_EQ(merged.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(merged.status().message().find("mixed snapshot versions"),
            std::string::npos);
}

TEST(MergeTest, UncoveredRowsRefused) {
  EXPECT_EQ(MergeAssignments(4, {Part(0, 2, 1, {10, 20})}).status().code(),
            StatusCode::kUnavailable);
}

TEST(MergeTest, OverlappingReplicasMustAgree) {
  // Same rows answered twice at the same version: fine when identical.
  Result<std::vector<int32_t>> merged = MergeAssignments(
      2, {Part(0, 2, 1, {10, 20}), Part(0, 2, 1, {10, 20})});
  ASSERT_TRUE(merged.ok());
  // A disagreement at the same version is a corrupt shard, not a choice.
  Result<std::vector<int32_t>> corrupt = MergeAssignments(
      2, {Part(0, 2, 1, {10, 20}), Part(0, 2, 1, {10, 99})});
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInternal);
}

TEST(MergeTest, SizeMismatchIsInternal) {
  EXPECT_EQ(MergeAssignments(2, {Part(0, 2, 1, {10})}).status().code(),
            StatusCode::kInternal);
}

TEST(MergeTest, TopKMergesDisjointRanges) {
  // k_eff = 2; ranges [0,1) and [1,2).
  Result<std::vector<int32_t>> merged = MergeTopK(
      2, {Part(0, 1, 3, {5, 7}, {0.9f, 0.8f}),
          Part(1, 2, 3, {2, 4}, {0.6f, 0.5f})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, (std::vector<int32_t>{5, 7, 2, 4}));
}

TEST(MergeTest, TopKOrdersByScoreDescIdAsc) {
  // Duplicate coverage of row 0 from two replicas with identical lists:
  // dedup keeps one copy; ties on score break ascending id.
  Result<std::vector<int32_t>> merged = MergeTopK(
      1, {Part(0, 1, 1, {9, 3}, {0.5f, 0.5f}),
          Part(0, 1, 1, {9, 3}, {0.5f, 0.5f})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, (std::vector<int32_t>{3, 9}));
}

TEST(MergeTest, TopKRequiresScoresAndUniformK) {
  // Missing scores: ragged part.
  EXPECT_EQ(MergeTopK(1, {Part(0, 1, 1, {5, 7})}).status().code(),
            StatusCode::kInternal);
  // k disagrees between parts.
  EXPECT_EQ(MergeTopK(2, {Part(0, 1, 1, {5, 7}, {0.9f, 0.8f}),
                          Part(1, 2, 1, {2}, {0.6f})})
                .status()
                .code(),
            StatusCode::kInternal);
}

TEST(MergeTest, TopKMixedVersionsRefused) {
  EXPECT_EQ(MergeTopK(2, {Part(0, 1, 1, {5, 7}, {0.9f, 0.8f}),
                          Part(1, 2, 2, {2, 4}, {0.6f, 0.5f})})
                .status()
                .code(),
            StatusCode::kUnavailable);
}

// An untagged part (version 0, e.g. a values response without version=)
// is a version like any other: it never splices with a tagged one, in
// either order.
TEST(MergeTest, UntaggedPartNeverSplicesWithTaggedOne) {
  EXPECT_EQ(MergeAssignments(
                4, {Part(0, 2, 0, {10, 20}), Part(2, 4, 5, {30, 40})})
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(MergeAssignments(
                4, {Part(2, 4, 5, {30, 40}), Part(0, 2, 0, {10, 20})})
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(MergeTest, TopKUntaggedPartNeverSplicesWithTaggedOne) {
  EXPECT_EQ(MergeTopK(2, {Part(0, 1, 0, {5, 7}, {0.9f, 0.8f}),
                          Part(1, 2, 5, {2, 4}, {0.6f, 0.5f})})
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(MergeTopK(2, {Part(1, 2, 5, {2, 4}, {0.6f, 0.5f}),
                          Part(0, 1, 0, {5, 7}, {0.9f, 0.8f})})
                .status()
                .code(),
            StatusCode::kUnavailable);
}

// Partial-coverage merges — the degrade policy's substrate. Uncovered rows
// hold -1, coverage lists the answered intervals, and the version guarantee
// is NOT relaxed.
TEST(MergePartialTest, AssignmentsFillUncoveredRowsWithSentinel) {
  Result<PartialMerge> merged = MergeAssignmentsPartial(
      6, {Part(0, 2, 1, {10, 20}), Part(4, 6, 1, {50, 60})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->values, (std::vector<int32_t>{10, 20, -1, -1, 50, 60}));
  EXPECT_EQ(merged->coverage,
            (std::vector<std::pair<size_t, size_t>>{{0, 2}, {4, 6}}));
  EXPECT_FALSE(merged->complete);
}

TEST(MergePartialTest, FullCoverageReportsComplete) {
  Result<PartialMerge> merged = MergeAssignmentsPartial(
      4, {Part(0, 2, 1, {10, 20}), Part(2, 4, 1, {30, 40})});
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->complete);
  EXPECT_EQ(merged->coverage,
            (std::vector<std::pair<size_t, size_t>>{{0, 4}}));
}

TEST(MergePartialTest, ZeroCoverageStaysUnavailable) {
  // Degrade never fabricates an answer from nothing.
  EXPECT_EQ(MergeAssignmentsPartial(4, {}).status().code(),
            StatusCode::kUnavailable);
}

TEST(MergePartialTest, MixedVersionsStillRefused) {
  EXPECT_EQ(MergeAssignmentsPartial(
                4, {Part(0, 2, 1, {10, 20}), Part(2, 4, 2, {30, 40})})
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(MergePartialTest, ReplicaDisagreementStillInternal) {
  EXPECT_EQ(MergeAssignmentsPartial(
                4, {Part(0, 2, 1, {10, 20}), Part(0, 2, 1, {10, 99})})
                .status()
                .code(),
            StatusCode::kInternal);
}

TEST(MergePartialTest, TopKSkipsUncoveredRows) {
  // rows 0 and 2 covered, row 1 missing: k=2 slots for row 1 hold -1.
  Result<PartialMerge> merged = MergeTopKPartial(
      3, {Part(0, 1, 1, {5, 7}, {0.9f, 0.8f}),
          Part(2, 3, 1, {2, 4}, {0.6f, 0.5f})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->values, (std::vector<int32_t>{5, 7, -1, -1, 2, 4}));
  EXPECT_EQ(merged->coverage,
            (std::vector<std::pair<size_t, size_t>>{{0, 1}, {2, 3}}));
  EXPECT_FALSE(merged->complete);
}

}  // namespace
}  // namespace entmatcher
