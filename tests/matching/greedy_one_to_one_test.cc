#include "matching/greedy_one_to_one.h"

#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matching/greedy.h"
#include "matching/hungarian_matcher.h"
#include "matching/sparse_matchers.h"

namespace entmatcher {
namespace {

Matrix RandomScores(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Matrix s(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : s.Row(i)) v = static_cast<float>(rng.NextUniform(0, 1));
  }
  return s;
}

TEST(GreedyOneToOneTest, ResolvesCollisions) {
  // Both rows prefer column 0; row 0 wins (higher score), row 1 settles.
  Matrix s = Matrix::FromRows({{0.9f, 0.1f}, {0.8f, 0.7f}});
  auto a = GreedyOneToOneMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->target_of_source, (std::vector<int32_t>{0, 1}));
}

TEST(GreedyOneToOneTest, OneToOneProperty) {
  Matrix s = RandomScores(20, 20, 5);
  auto a = GreedyOneToOneMatch(s);
  ASSERT_TRUE(a.ok());
  std::set<int32_t> used;
  for (int32_t j : a->target_of_source) {
    ASSERT_NE(j, Assignment::kUnmatched);
    EXPECT_TRUE(used.insert(j).second);
  }
}

TEST(GreedyOneToOneTest, RectangularLeavesOverflowUnmatched) {
  Matrix s = RandomScores(6, 4, 7);
  auto a = GreedyOneToOneMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->NumMatched(), 4u);
}

TEST(GreedyOneToOneTest, TwoApproximationOfHungarian) {
  // Greedy global matching is a 1/2-approximation of the optimal assignment.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Matrix s = RandomScores(15, 15, seed + 30);
    auto greedy = GreedyOneToOneMatch(s);
    auto hun = HungarianMatch(s);
    ASSERT_TRUE(greedy.ok() && hun.ok());
    auto total = [&s](const Assignment& a) {
      double t = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a.target_of_source[i] != Assignment::kUnmatched) {
          t += s.At(i, static_cast<size_t>(a.target_of_source[i]));
        }
      }
      return t;
    };
    EXPECT_GE(total(*greedy), 0.5 * total(*hun) - 1e-6);
    EXPECT_LE(total(*greedy), total(*hun) + 1e-6);
  }
}

// A NaN score sorts like -inf when the matrix holds no -inf, in both
// layouts. The sparse lists leave out every third cell.
TEST(GreedyOneToOneTest, NanSortsAsNegativeInfinityWhenNoneIsPresent) {
  const size_t n = 12;
  const size_t m = 9;
  const Matrix scores = RandomScores(n, m, 41);
  auto nan_or_inf = [&](float bad) {
    Matrix out = scores;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i % 4; j < m; j += 4) out.At(i, j) = bad;
    }
    return out;
  };
  const Matrix with_nan = nan_or_inf(std::numeric_limits<float>::quiet_NaN());
  const Matrix with_inf = nan_or_inf(-std::numeric_limits<float>::infinity());
  auto dense_nan = GreedyOneToOneMatch(with_nan);
  auto dense_inf = GreedyOneToOneMatch(with_inf);
  ASSERT_TRUE(dense_nan.ok() && dense_inf.ok());
  EXPECT_EQ(dense_nan->target_of_source, dense_inf->target_of_source);

  auto candidates = [&](const Matrix& dense) {
    SparseScores out = SparseScores::CreateOwned(n, m, n * m);
    std::vector<size_t>& offsets = out.mutable_row_offsets();
    offsets.assign(1, 0);
    size_t e = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        if ((i + j) % 3 == 0) continue;
        out.values()[e] = dense.At(i, j);
        out.col_indices()[e++] = static_cast<uint32_t>(j);
      }
      offsets.push_back(e);
    }
    EXPECT_TRUE(out.Validate().ok());
    return out;
  };
  auto sparse_nan = SparseGreedyOneToOneMatch(candidates(with_nan));
  auto sparse_inf = SparseGreedyOneToOneMatch(candidates(with_inf));
  ASSERT_TRUE(sparse_nan.ok() && sparse_inf.ok());
  EXPECT_EQ(sparse_nan->target_of_source, sparse_inf->target_of_source);
}

TEST(GreedyOneToOneTest, RejectsEmpty) {
  EXPECT_FALSE(GreedyOneToOneMatch(Matrix()).ok());
}

TEST(MutualBestTest, KeepsOnlyReciprocalPairs) {
  // Row 0 <-> col 0 mutual; row 1's best is col 0 but col 0 prefers row 0.
  Matrix s = Matrix::FromRows({{0.9f, 0.1f}, {0.8f, 0.2f}});
  auto a = MutualBestMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->target_of_source[0], 0);
  EXPECT_EQ(a->target_of_source[1], Assignment::kUnmatched);
}

TEST(MutualBestTest, PerfectDiagonalAllMutual) {
  Matrix s(5, 5);
  for (size_t i = 0; i < 5; ++i) s.At(i, i) = 1.0f;
  auto a = MutualBestMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->NumMatched(), 5u);
}

TEST(MutualBestTest, SubsetOfGreedyDecisions) {
  Matrix s = RandomScores(25, 25, 9);
  auto mutual = MutualBestMatch(s);
  auto greedy = GreedyMatch(s);
  ASSERT_TRUE(mutual.ok() && greedy.ok());
  size_t matched = 0;
  for (size_t i = 0; i < 25; ++i) {
    if (mutual->target_of_source[i] == Assignment::kUnmatched) continue;
    ++matched;
    // Every mutual decision coincides with the greedy row decision.
    EXPECT_EQ(mutual->target_of_source[i], greedy->target_of_source[i]);
  }
  EXPECT_LE(matched, 25u);
  EXPECT_GT(matched, 0u);
}

TEST(MutualBestTest, RejectsEmpty) {
  EXPECT_FALSE(MutualBestMatch(Matrix()).ok());
}

}  // namespace
}  // namespace entmatcher
