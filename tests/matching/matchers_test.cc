#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matching/gale_shapley.h"
#include "matching/greedy.h"
#include "matching/hungarian_matcher.h"
#include "matching/lap.h"

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

// ---- Greedy -------------------------------------------------------------------

TEST(GreedyTest, PicksRowArgmax) {
  Matrix s = Matrix::FromRows({{0.1f, 0.9f}, {0.8f, 0.3f}});
  auto a = GreedyMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->target_of_source, (std::vector<int32_t>{1, 0}));
  EXPECT_EQ(a->NumMatched(), 2u);
}

TEST(GreedyTest, AllowsDuplicateTargets) {
  Matrix s = Matrix::FromRows({{0.9f, 0.1f}, {0.8f, 0.2f}});
  auto a = GreedyMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->target_of_source[0], 0);
  EXPECT_EQ(a->target_of_source[1], 0);  // greedy ignores the conflict
}

TEST(GreedyTest, RejectsEmpty) { EXPECT_FALSE(GreedyMatch(Matrix()).ok()); }

// ---- LAP solver -----------------------------------------------------------------

TEST(LapTest, SolvesKnownInstance) {
  // Classic 3x3: optimal assignment 0->1, 1->0, 2->2 with cost 1+2+3 = 6?
  Matrix cost = Matrix::FromRows({{4, 1, 3}, {2, 0, 5}, {3, 2, 2}});
  auto sol = SolveLapMin(cost);
  ASSERT_TRUE(sol.ok());
  // Optimal: (0,1)=1,(1,0)=2,(2,2)=2 -> 5.
  EXPECT_DOUBLE_EQ(sol->total_cost, 5.0);
  EXPECT_EQ(sol->col_of_row[0], 1);
  EXPECT_EQ(sol->col_of_row[1], 0);
  EXPECT_EQ(sol->col_of_row[2], 2);
}

TEST(LapTest, RejectsNonSquare) {
  EXPECT_FALSE(SolveLapMin(Matrix(2, 3)).ok());
  EXPECT_FALSE(SolveLapMin(Matrix()).ok());
}

TEST(LapTest, SingleCell) {
  Matrix cost = Matrix::FromRows({{7}});
  auto sol = SolveLapMin(cost);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->col_of_row[0], 0);
  EXPECT_DOUBLE_EQ(sol->total_cost, 7.0);
}

// Exhaustive optimality property: compare against brute-force over all
// permutations for small random instances.
class LapOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LapOptimalityTest, MatchesBruteForceOptimum) {
  const size_t n = 3 + GetParam() % 5;  // 3..7
  Matrix cost = RandomScores(n, n, GetParam() * 71 + 5);
  auto sol = SolveLapMin(cost);
  ASSERT_TRUE(sol.ok());

  // Assignment is a permutation.
  std::set<int32_t> used(sol->col_of_row.begin(), sol->col_of_row.end());
  EXPECT_EQ(used.size(), n);

  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  double best = 1e18;
  do {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += cost.At(i, perm[i]);
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(sol->total_cost, best, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LapOptimalityTest,
                         ::testing::Range<uint64_t>(0, 24));

// ---- Hungarian matcher ------------------------------------------------------------

TEST(HungarianTest, MaximizesSimilarity) {
  // Greedy would match both rows to column 0; Hungarian resolves 1-to-1.
  Matrix s = Matrix::FromRows({{0.9f, 0.1f}, {0.8f, 0.7f}});
  auto a = HungarianMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->target_of_source, (std::vector<int32_t>{0, 1}));
}

TEST(HungarianTest, OneToOneProperty) {
  Matrix s = RandomScores(30, 30, 11);
  auto a = HungarianMatch(s);
  ASSERT_TRUE(a.ok());
  std::set<int32_t> used;
  for (int32_t j : a->target_of_source) {
    ASSERT_NE(j, Assignment::kUnmatched);
    EXPECT_TRUE(used.insert(j).second);
  }
}

TEST(HungarianTest, RectangularMoreSourcesLeavesSomeUnmatched) {
  Matrix s = RandomScores(5, 3, 7);
  auto a = HungarianMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->NumMatched(), 3u);
  std::set<int32_t> used;
  for (int32_t j : a->target_of_source) {
    if (j == Assignment::kUnmatched) continue;
    EXPECT_GE(j, 0);
    EXPECT_LT(j, 3);
    EXPECT_TRUE(used.insert(j).second);
  }
}

TEST(HungarianTest, RectangularMoreTargetsMatchesAllSources) {
  Matrix s = RandomScores(3, 6, 8);
  auto a = HungarianMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->NumMatched(), 3u);
}

// A NaN or infinite score has no place in the cost order: some placements
// made the solver spin, others slipped through into an assignment. Every
// one is refused up front, naming the first bad cell.
TEST(HungarianTest, RefusesNonFiniteScoresNamingRowAndColumn) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  struct Case {
    const char* name;
    std::vector<std::pair<size_t, size_t>> cells;
    float value;
    const char* where;
  };
  const Case cases[] = {
      {"NaN column", {{0, 1}, {1, 1}, {2, 1}}, kNan, "row 0, column 1"},
      {"+inf cell", {{1, 2}}, kInf, "row 1, column 2"},
      {"NaN at (0,0)", {{0, 0}}, kNan, "row 0, column 0"},
      {"NaN cell", {{2, 1}}, kNan, "row 2, column 1"},
      {"-inf cell", {{1, 0}}, -kInf, "row 1, column 0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Matrix s = RandomScores(3, 3, 17);
    for (const auto& [i, j] : c.cells) s.At(i, j) = c.value;
    Result<Assignment> a = HungarianMatch(s);
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(a.status().message().find(c.where), std::string::npos)
        << a.status().ToString();
  }
}

TEST(HungarianTest, BeatsGreedyTotalSimilarity) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Matrix s = RandomScores(12, 12, seed + 100);
    auto hun = HungarianMatch(s);
    auto greedy = GreedyMatch(s);
    ASSERT_TRUE(hun.ok() && greedy.ok());
    // Restrict comparison to 1-to-1 feasibility: Hungarian's total over its
    // (feasible) assignment must at least equal any other permutation's;
    // compare with the identity permutation as a sanity floor.
    double hun_total = 0.0;
    for (size_t i = 0; i < 12; ++i) {
      hun_total += s.At(i, static_cast<size_t>(hun->target_of_source[i]));
    }
    double id_total = 0.0;
    for (size_t i = 0; i < 12; ++i) id_total += s.At(i, i);
    EXPECT_GE(hun_total, id_total - 1e-4);
  }
}

TEST(HungarianTest, RejectsEmpty) { EXPECT_FALSE(HungarianMatch(Matrix()).ok()); }

// ---- Gale–Shapley -----------------------------------------------------------------

TEST(GaleShapleyTest, ClassicInstance) {
  // Row preferences and column preferences interact; verify stability and
  // the known source-optimal outcome for this matrix.
  Matrix s = Matrix::FromRows({{0.9f, 0.1f}, {0.8f, 0.7f}});
  auto a = GaleShapleyMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->target_of_source, (std::vector<int32_t>{0, 1}));
}

TEST(GaleShapleyTest, RejectsEmpty) {
  EXPECT_FALSE(GaleShapleyMatch(Matrix()).ok());
}

TEST(GaleShapleyTest, RectangularMoreSources) {
  Matrix s = RandomScores(6, 4, 17);
  auto a = GaleShapleyMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->NumMatched(), 4u);  // only 4 targets exist
}

TEST(GaleShapleyTest, RectangularMoreTargets) {
  Matrix s = RandomScores(4, 7, 18);
  auto a = GaleShapleyMatch(s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->NumMatched(), 4u);
}

// Stability property: no blocking pair (u, v) such that u prefers v to its
// partner and v prefers u to its partner.
class StabilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StabilityTest, NoBlockingPair) {
  const size_t n = 4 + GetParam() % 9;
  const size_t m = 4 + (GetParam() / 3) % 9;
  Matrix s = RandomScores(n, m, GetParam() * 37 + 1);
  auto a = GaleShapleyMatch(s);
  ASSERT_TRUE(a.ok());

  // partner_of_target from the assignment.
  std::vector<int32_t> partner(m, -1);
  for (size_t i = 0; i < n; ++i) {
    const int32_t j = a->target_of_source[i];
    if (j != Assignment::kUnmatched) partner[static_cast<size_t>(j)] = static_cast<int32_t>(i);
  }
  for (size_t u = 0; u < n; ++u) {
    const int32_t mu = a->target_of_source[u];
    for (size_t v = 0; v < m; ++v) {
      if (mu == static_cast<int32_t>(v)) continue;
      const bool u_prefers_v =
          mu == Assignment::kUnmatched ||
          s.At(u, v) > s.At(u, static_cast<size_t>(mu));
      const int32_t pv = partner[v];
      const bool v_prefers_u =
          pv < 0 || s.At(u, v) > s.At(static_cast<size_t>(pv), v);
      ASSERT_FALSE(u_prefers_v && v_prefers_u)
          << "blocking pair (" << u << ", " << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StabilityTest, ::testing::Range<uint64_t>(0, 20));

// A NaN score prefers like -inf when the matrix holds no -inf: both sides'
// preference lists put it last, ties by index. Shapes put rows and columns
// on both sides of the ordering primitive's short-row cutoff, and the extra
// sources of 70x40 exhaust their lists through the NaN entries.
TEST(GaleShapleyTest, NanPrefersAsNegativeInfinityWhenNoneIsPresent) {
  for (const auto& [n, m] : {std::pair<size_t, size_t>{40, 70}, {70, 40}}) {
    Matrix with_nan = RandomScores(n, m, 9);
    Matrix with_inf = with_nan;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = (i * 7) % 5; j < m; j += 5) {
        with_nan.At(i, j) = std::numeric_limits<float>::quiet_NaN();
        with_inf.At(i, j) = -std::numeric_limits<float>::infinity();
      }
    }
    auto nan_match = GaleShapleyMatch(with_nan);
    auto inf_match = GaleShapleyMatch(with_inf);
    ASSERT_TRUE(nan_match.ok() && inf_match.ok());
    EXPECT_EQ(nan_match->target_of_source, inf_match->target_of_source)
        << n << "x" << m;
  }
}

TEST(GaleShapleyTest, OneToOneProperty) {
  Matrix s = RandomScores(25, 25, 3);
  auto a = GaleShapleyMatch(s);
  ASSERT_TRUE(a.ok());
  std::set<int32_t> used;
  for (int32_t j : a->target_of_source) {
    ASSERT_NE(j, Assignment::kUnmatched);
    EXPECT_TRUE(used.insert(j).second);
  }
}

}  // namespace
}  // namespace entmatcher
