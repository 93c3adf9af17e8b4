#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/ranking.h"
#include "la/similarity.h"
#include "matching/gale_shapley.h"
#include "matching/transforms.h"

namespace entmatcher {
namespace {

// The threading contract (DESIGN.md "Threading model") is that every
// parallelized kernel is BIT-identical to the serial path at any thread
// count. These tests pin that guarantee for the full similarity + transform
// hot path, and for the ranked preference tables of RInf and SMat, at
// 1 / 2 / 7 threads.

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

bool BitIdentical(const Assignment& a, const Assignment& b) {
  return a.target_of_source == b.target_of_source;
}

class ThreadingDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

  // Runs `compute` at 1 thread, then asserts the 2- and 7-thread results are
  // bit-identical to it.
  template <typename Fn>
  void ExpectBitIdenticalAcrossThreadCounts(const char* label, Fn compute) {
    SetNumThreads(1);
    const auto serial = compute();
    for (size_t threads : {2u, 7u}) {
      SetNumThreads(threads);
      const auto parallel = compute();
      EXPECT_TRUE(BitIdentical(serial, parallel))
          << label << ": " << threads << "-thread result differs from serial";
    }
  }

 private:
  size_t previous_threads_;
};

TEST_F(ThreadingDeterminismTest, ComputeSimilarityAllMetrics) {
  const Matrix src = RandomMatrix(83, 24, 1);
  const Matrix tgt = RandomMatrix(61, 24, 2);
  for (SimilarityMetric metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kNegEuclidean,
        SimilarityMetric::kNegManhattan}) {
    ExpectBitIdenticalAcrossThreadCounts(
        SimilarityMetricName(metric), [&] {
          Result<Matrix> r = ComputeSimilarity(src, tgt, metric);
          EXPECT_TRUE(r.ok());
          return std::move(r).value();
        });
  }
}

TEST_F(ThreadingDeterminismTest, CslsTransform) {
  const Matrix scores = RandomMatrix(83, 61, 3);
  for (size_t k : {size_t{5}, size_t{10}}) {
    ExpectBitIdenticalAcrossThreadCounts("csls", [&] {
      Result<Matrix> r = CslsTransform(scores, k);
      EXPECT_TRUE(r.ok());
      return std::move(r).value();
    });
  }
}

TEST_F(ThreadingDeterminismTest, RinfTransform) {
  const Matrix scores = RandomMatrix(83, 61, 4);
  for (size_t k : {size_t{1}, size_t{3}}) {
    ExpectBitIdenticalAcrossThreadCounts("rinf", [&] {
      Result<Matrix> r = RinfTransform(scores, k);
      EXPECT_TRUE(r.ok());
      return std::move(r).value();
    });
  }
}

// Row and column lengths fall on both sides of the ordering primitive's
// short-row cutoff (la/ranking.cc).
constexpr std::pair<size_t, size_t> kRankShapes[] = {{83, 61}, {40, 130}};

TEST_F(ThreadingDeterminismTest, RowRankMatrixInPlace) {
  for (const auto& [n, m] : kRankShapes) {
    const Matrix scores = RandomMatrix(n, m, 6);
    ExpectBitIdenticalAcrossThreadCounts("ranks", [&] {
      Matrix ranks = scores;
      RowRankMatrixInPlace(&ranks);
      return ranks;
    });
  }
}

TEST_F(ThreadingDeterminismTest, GaleShapleyMatch) {
  for (const auto& [n, m] : kRankShapes) {
    const Matrix scores = RandomMatrix(n, m, 7);
    ExpectBitIdenticalAcrossThreadCounts("smat", [&] {
      Result<Assignment> r = GaleShapleyMatch(scores);
      EXPECT_TRUE(r.ok());
      return std::move(r).value();
    });
  }
}

TEST_F(ThreadingDeterminismTest, RinfWrAndPbAndSinkhorn) {
  const Matrix scores = RandomMatrix(53, 47, 5);
  ExpectBitIdenticalAcrossThreadCounts("rinf-wr", [&] {
    Result<Matrix> r = RinfWrTransform(scores);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  });
  ExpectBitIdenticalAcrossThreadCounts("rinf-pb", [&] {
    Result<Matrix> r = RinfPbTransform(scores, 10);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  });
  ExpectBitIdenticalAcrossThreadCounts("sinkhorn", [&] {
    Result<Matrix> r = SinkhornTransform(scores, 10, 0.05);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  });
}

}  // namespace
}  // namespace entmatcher
