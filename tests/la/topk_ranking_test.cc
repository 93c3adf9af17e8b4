#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/ranking.h"
#include "la/topk.h"

namespace entmatcher {
namespace {

Matrix RandomMatrix(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Matrix out(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : out.Row(i)) v = static_cast<float>(rng.NextGaussian());
  }
  return out;
}

TEST(TopkTest, RowArgmaxPicksMaximum) {
  Matrix m = Matrix::FromRows({{1, 5, 2}, {7, 0, 3}});
  auto idx = RowArgmax(m);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(TopkTest, RowArgmaxTieBreaksLow) {
  Matrix m = Matrix::FromRows({{2, 2, 1}});
  EXPECT_EQ(RowArgmax(m)[0], 0u);
}

TEST(TopkTest, RowAndColMax) {
  Matrix m = Matrix::FromRows({{1, 5}, {7, 0}});
  auto rmax = RowMax(m);
  EXPECT_EQ(rmax[0], 5.0f);
  EXPECT_EQ(rmax[1], 7.0f);
  auto cmax = ColMax(m);
  EXPECT_EQ(cmax[0], 7.0f);
  EXPECT_EQ(cmax[1], 5.0f);
}

TEST(TopkTest, RowTopKMean) {
  Matrix m = Matrix::FromRows({{1, 2, 3, 4}});
  EXPECT_FLOAT_EQ(RowTopKMean(m, 1)[0], 4.0f);
  EXPECT_FLOAT_EQ(RowTopKMean(m, 2)[0], 3.5f);
  EXPECT_FLOAT_EQ(RowTopKMean(m, 4)[0], 2.5f);
  // k larger than row length clamps.
  EXPECT_FLOAT_EQ(RowTopKMean(m, 10)[0], 2.5f);
}

TEST(TopkTest, ColTopKMeanMatchesRowTopKMeanOnTranspose) {
  Matrix m = RandomMatrix(17, 23, 55);
  for (size_t k : {1u, 2u, 5u, 30u}) {
    const std::vector<float> streamed = ColTopKMean(m, k);
    Matrix t = m.Transposed();
    const std::vector<float> reference = RowTopKMean(t, k);
    ASSERT_EQ(streamed.size(), reference.size());
    for (size_t j = 0; j < streamed.size(); ++j) {
      ASSERT_NEAR(streamed[j], reference[j], 1e-5f) << "k=" << k << " j=" << j;
    }
  }
}

TEST(TopkTest, ColTopKMeanSmallKnown) {
  Matrix m = Matrix::FromRows({{1, 5}, {3, 2}, {2, 8}});
  const std::vector<float> top2 = ColTopKMean(m, 2);
  EXPECT_FLOAT_EQ(top2[0], 2.5f);  // (3 + 2) / 2
  EXPECT_FLOAT_EQ(top2[1], 6.5f);  // (8 + 5) / 2
}

TEST(TopkTest, RowTopKIndicesSortedByValue) {
  Matrix m = Matrix::FromRows({{0.1f, 0.9f, 0.5f, 0.7f}});
  auto idx = RowTopKIndices(m, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 3u);
  EXPECT_EQ(idx[2], 2u);
}

TEST(TopkTest, RowTopKIndicesPropertyAgainstSort) {
  Matrix m = RandomMatrix(12, 30, 77);
  const size_t k = 5;
  auto idx = RowTopKIndices(m, k);
  for (size_t r = 0; r < m.rows(); ++r) {
    auto row = m.Row(r);
    std::vector<float> values(row.begin(), row.end());
    std::sort(values.begin(), values.end(), std::greater<float>());
    for (size_t p = 0; p < k; ++p) {
      ASSERT_FLOAT_EQ(m.At(r, idx[r * k + p]), values[p]);
    }
  }
}

TEST(TopkTest, MeanRowTopKStdMatchesManual) {
  Matrix m = Matrix::FromRows({{1, 2, 3}});
  // top-2 = {3, 2}: mean 2.5, var 0.25, std 0.5
  EXPECT_NEAR(MeanRowTopKStd(m, 2), 0.5, 1e-6);
  // k = 1 has zero spread by definition.
  EXPECT_EQ(MeanRowTopKStd(m, 1), 0.0);
}

TEST(TopkTest, MeanRowTopKStdUniformRowIsZero) {
  Matrix m = Matrix::FromRows({{2, 2, 2, 2}});
  EXPECT_NEAR(MeanRowTopKStd(m, 3), 0.0, 1e-9);
}

// ---- RowRankMatrixInPlace ---------------------------------------------------

TEST(RankingTest, SmallKnownRanks) {
  Matrix m = Matrix::FromRows({{0.2f, 0.9f, 0.5f}});
  Matrix r = m;
  RowRankMatrixInPlace(&r);
  EXPECT_EQ(r.At(0, 0), 3.0f);
  EXPECT_EQ(r.At(0, 1), 1.0f);
  EXPECT_EQ(r.At(0, 2), 2.0f);
}

TEST(RankingTest, TiesBreakByColumnIndex) {
  Matrix m = Matrix::FromRows({{1.0f, 1.0f, 2.0f}});
  Matrix r = m;
  RowRankMatrixInPlace(&r);
  EXPECT_EQ(r.At(0, 2), 1.0f);
  EXPECT_EQ(r.At(0, 0), 2.0f);
  EXPECT_EQ(r.At(0, 1), 3.0f);
}

class RankingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankingPropertyTest, EachRowIsPermutationConsistentWithScores) {
  Matrix m = RandomMatrix(10, 25, GetParam());
  Matrix r = m;
  RowRankMatrixInPlace(&r);
  for (size_t i = 0; i < m.rows(); ++i) {
    std::set<float> seen;
    for (size_t j = 0; j < m.cols(); ++j) {
      const float rank = r.At(i, j);
      ASSERT_GE(rank, 1.0f);
      ASSERT_LE(rank, static_cast<float>(m.cols()));
      ASSERT_TRUE(seen.insert(rank).second) << "duplicate rank";
    }
    // Higher score => lower (better) rank.
    for (size_t a = 0; a < m.cols(); ++a) {
      for (size_t b = a + 1; b < m.cols(); ++b) {
        if (m.At(i, a) > m.At(i, b)) {
          ASSERT_LT(r.At(i, a), r.At(i, b));
        } else if (m.At(i, a) < m.At(i, b)) {
          ASSERT_GT(r.At(i, a), r.At(i, b));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 29, 101));

// ---- Ordering primitive ----------------------------------------------------

// The reference order the primitive must match, as a float-comparator
// sort: value descending, ties (including +0 against -0) by position.
std::vector<uint32_t> ComparatorOrder(std::span<const float> row) {
  std::vector<uint32_t> order(row.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [row](uint32_t a, uint32_t b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  });
  return order;
}

// Gaussian scores, or the same rounded to half steps: heavy ties, and the
// values rounded from (-0.25, 0) come out as -0 among the +0s.
std::vector<float> OrderTestRow(size_t len, bool half_steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> row(len);
  for (float& v : row) {
    v = static_cast<float>(rng.NextGaussian());
    if (half_steps) v = std::round(2.0f * v) / 2.0f;
  }
  return row;
}

// Row lengths on both sides of the short-row cutoff.
constexpr size_t kOrderTestLengths[] = {1, 2, 63, 64, 65, 2000};

TEST(OrderTest, KeysFoldSignedZeroAndPutNanAfterNegativeInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(OrderKey(-0.0f), OrderKey(0.0f));
  EXPECT_LT(OrderKey(inf), OrderKey(1.0f));
  EXPECT_LT(OrderKey(1.0f), OrderKey(tiny));
  EXPECT_LT(OrderKey(tiny), OrderKey(0.0f));
  EXPECT_LT(OrderKey(0.0f), OrderKey(-tiny));
  EXPECT_LT(OrderKey(-1.0f), OrderKey(-inf));
  EXPECT_LT(OrderKey(-inf), OrderKey(nan));
  EXPECT_EQ(OrderKey(-nan), OrderKey(nan));
}

TEST(OrderTest, MatchesComparatorSortOnBothSidesOfTheCutoff) {
  std::vector<uint64_t> scratch;
  size_t negative_zeros = 0;
  for (size_t len : kOrderTestLengths) {
    for (bool half_steps : {false, true}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "len " << len << " half_steps "
                                          << half_steps << " seed " << seed);
        const std::vector<float> row = OrderTestRow(len, half_steps, seed);
        for (float v : row) negative_zeros += v == 0.0f && std::signbit(v);
        const std::vector<uint32_t> expected = ComparatorOrder(row);

        std::vector<uint32_t> order(len);
        OrderDescending(row, order, &scratch);
        EXPECT_EQ(order, expected);

        std::vector<uint32_t> keys(len);
        for (size_t p = 0; p < len; ++p) keys[p] = OrderKey(row[p]);
        std::vector<uint32_t> by_key(len);
        OrderByKey(keys, by_key, &scratch);
        EXPECT_EQ(by_key, expected);

        std::vector<float> ranks = row;
        RankRowInPlace(ranks, &scratch);
        for (size_t pos = 0; pos < len; ++pos) {
          ASSERT_EQ(ranks[expected[pos]], static_cast<float>(pos + 1));
        }
      }
    }
  }
  EXPECT_GT(negative_zeros, 0u) << "the tie-heavy rows must mix -0 and +0";
}

TEST(OrderTest, NanOrdersAsNegativeInfinityWhenNoneIsPresent) {
  std::vector<uint64_t> scratch;
  for (size_t len : kOrderTestLengths) {
    SCOPED_TRACE(::testing::Message() << "len " << len);
    std::vector<float> with_nan = OrderTestRow(len, true, 7);
    std::vector<float> with_inf = with_nan;
    for (size_t p = 0; p < len; p += 3) {
      with_nan[p] = std::numeric_limits<float>::quiet_NaN();
      with_inf[p] = -std::numeric_limits<float>::infinity();
    }
    std::vector<uint32_t> nan_order(len);
    std::vector<uint32_t> inf_order(len);
    OrderDescending(with_nan, nan_order, &scratch);
    OrderDescending(with_inf, inf_order, &scratch);
    EXPECT_EQ(nan_order, inf_order);

    Matrix nan_ranks(1, len);
    Matrix inf_ranks(1, len);
    std::copy(with_nan.begin(), with_nan.end(), nan_ranks.Row(0).begin());
    std::copy(with_inf.begin(), with_inf.end(), inf_ranks.Row(0).begin());
    RowRankMatrixInPlace(&nan_ranks);
    RowRankMatrixInPlace(&inf_ranks);
    EXPECT_TRUE(std::equal(nan_ranks.Row(0).begin(), nan_ranks.Row(0).end(),
                           inf_ranks.Row(0).begin()));
  }
}

// RowTopKPositions, the one row selection, against the comparator sort: on
// Gaussian and tie-heavy half-step rows (which mix -0 and +0), on the empty
// row, and with k past the row length.
TEST(TopkTest, RowTopKPositionsMatchesSortReference) {
  std::vector<uint32_t> positions;
  std::vector<float> values;
  for (size_t len : {size_t(0), size_t(1), size_t(2), size_t(63), size_t(64),
                     size_t(65), size_t(2000)}) {
    for (bool half_steps : {false, true}) {
      const std::vector<float> row = OrderTestRow(len, half_steps, 5);
      const std::vector<uint32_t> expected = ComparatorOrder(row);
      for (size_t k : {size_t(1), size_t(5), size_t(64), size_t(3000)}) {
        SCOPED_TRACE(::testing::Message() << "len " << len << " half_steps "
                                          << half_steps << " k " << k);
        const size_t kk = RowTopKPositions(row, k, &positions, &values);
        ASSERT_EQ(kk, std::min(k, len));
        EXPECT_EQ(positions, std::vector<uint32_t>(expected.begin(),
                                                   expected.begin() + kk));
        ASSERT_EQ(values.size(), kk);
        for (size_t p = 0; p < kk; ++p) {
          EXPECT_EQ(std::memcmp(&values[p], &row[expected[p]], sizeof(float)),
                    0)
              << "rank " << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace entmatcher
