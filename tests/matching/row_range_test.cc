// Row-range queries (MatchEngine::BeginBatch(options, row_begin, row_end)):
// every range's scores, top-k lists and assignment are bit-identical to the
// same rows of the full answer, at every thread count, for the row-local
// presets (which score only the range, reading a per-snapshot column
// statistic) and for the rest (which score the full pair and hand back the
// range). A row-local range leases exactly its own rows.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/engine.h"
#include "matching/snapshot.h"

namespace entmatcher {
namespace {

constexpr size_t kRows = 83;
constexpr size_t kTargets = 61;
constexpr size_t kDim = 16;
constexpr size_t kTopK = 5;

// Gaussian embeddings, or the same rounded to half steps with the sign of
// zero kept from the unrounded value: many tied scores, and -0 next to +0.
Matrix Embeddings(size_t rows, uint64_t seed, bool half_steps) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) {
      const float x = static_cast<float>(rng.NextGaussian());
      v = half_steps ? std::copysign(std::round(2.0f * x) / 2.0f, x) : x;
    }
  }
  return m;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

// Rows [begin, end) of `full`, copied.
Matrix Rows(const Matrix& full, size_t begin, size_t end) {
  Matrix out(end - begin, full.cols());
  std::memcpy(out.data(), full.Row(begin).data(), out.ByteSize());
  return out;
}

MatchOptions CslsK3() {
  MatchOptions options = MakePreset(AlgorithmPreset::kCsls);
  options.csls_k = 3;
  return options;
}

// The row-local presets, CSLS at the preset k and at k = 3, and two presets
// that score the full pair.
std::vector<MatchOptions> RangePresets() {
  return {MakePreset(AlgorithmPreset::kDInf),
          MakePreset(AlgorithmPreset::kCsls),
          CslsK3(),
          MakePreset(AlgorithmPreset::kRinfWr),
          MakePreset(AlgorithmPreset::kRinf),
          MakePreset(AlgorithmPreset::kHungarian)};
}

class RowRangeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { previous_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

  MatchEngine Engine() {
    Result<MatchEngine> engine =
        MatchEngine::Create(Embeddings(kRows, 3, GetParam()),
                            Embeddings(kTargets, 4, GetParam()),
                            MatchOptions());
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  }

 private:
  size_t previous_threads_ = 1;
};

TEST_P(RowRangeTest, RangesBitIdenticalToRowsOfTheFullAnswer) {
  SetNumThreads(1);
  MatchEngine reference = Engine();
  struct Full {
    Matrix scores;
    std::vector<int32_t> assignment;
    std::vector<uint32_t> topk;
  };
  std::vector<Full> full;
  for (const MatchOptions& options : RangePresets()) {
    Result<Matrix> scores = reference.TransformedScores(options);
    Result<Assignment> assignment = reference.Match(options);
    ASSERT_TRUE(scores.ok() && assignment.ok());
    full.push_back({*scores, assignment->target_of_source,
                    RowTopKIndices(*scores, kTopK)});
  }

  // [3, 70) splits a ParallelFor grain; [41, 42) is one row; [0, n) is all.
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {3, 70}, {41, 42}, {0, kRows}};
  for (size_t threads : {1u, 2u, 7u}) {
    SetNumThreads(threads);
    // A fresh snapshot per thread count: its column statistics are built
    // at this thread count.
    MatchEngine engine = Engine();
    const std::vector<MatchOptions> presets = RangePresets();
    for (size_t p = 0; p < presets.size(); ++p) {
      const MatchOptions& options = presets[p];
      for (const auto& [begin, end] : ranges) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " preset=" << p << " rows=["
                     << begin << ", " << end << ")");
        Result<MatchEngine::ScoredBatch> batch =
            engine.BeginBatch(options, begin, end);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        EXPECT_TRUE(
            SameBits(batch->scores(), Rows(full[p].scores, begin, end)));
        Result<Assignment> assignment = batch->Match(options);
        ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
        EXPECT_EQ(assignment->target_of_source,
                  std::vector<int32_t>(full[p].assignment.begin() + begin,
                                       full[p].assignment.begin() + end));
        EXPECT_EQ(RowTopKIndices(batch->scores(), kTopK),
                  std::vector<uint32_t>(full[p].topk.begin() + begin * kTopK,
                                        full[p].topk.begin() + end * kTopK));
      }
    }
  }
}

TEST_P(RowRangeTest, RowLocalRangeLeasesExactlyItsRows) {
  MatchEngine engine = Engine();
  const size_t begin = 10;
  const size_t end = 31;
  const size_t range_bytes = (end - begin) * kTargets * sizeof(float);
  for (AlgorithmPreset preset :
       {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls,
        AlgorithmPreset::kRinfWr}) {
    const MatchOptions options = MakePreset(preset);
    ASSERT_TRUE(MatchEngine::IsRowLocal(options)) << PresetName(preset);
    EXPECT_EQ(MatchEngine::DeclaredWorkspaceBytesFor(kRows, kTargets, options,
                                                     begin, end),
              range_bytes);
    // The first query builds the column statistic in its own lease; the
    // second reads the memo. Both lease the range's rows and nothing else.
    for (int repeat = 0; repeat < 2; ++repeat) {
      {
        Result<MatchEngine::ScoredBatch> batch =
            engine.BeginBatch(options, begin, end);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        ASSERT_TRUE(batch->Match(options).ok());
      }
      EXPECT_EQ(engine.workspace().high_water_bytes(), range_bytes)
          << PresetName(preset) << " repeat " << repeat;
      EXPECT_EQ(engine.workspace().in_use_bytes(), 0u);
    }
  }
  // A preset that is not row-local scores, and declares, the full pair.
  const MatchOptions rinf = MakePreset(AlgorithmPreset::kRinf);
  EXPECT_FALSE(MatchEngine::IsRowLocal(rinf));
  EXPECT_EQ(MatchEngine::DeclaredWorkspaceBytesFor(kRows, kTargets, rinf,
                                                   begin, end),
            engine.DeclaredWorkspaceBytes(rinf));
}

TEST_P(RowRangeTest, RowLocalBatchRefusesAFullPairMatcher) {
  MatchEngine engine = Engine();
  const MatchOptions csls = MakePreset(AlgorithmPreset::kCsls);
  Result<MatchEngine::ScoredBatch> batch = engine.BeginBatch(csls, 5, 20);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  MatchOptions hungarian = csls;
  hungarian.matcher = MatcherKind::kHungarian;
  EXPECT_EQ(batch->Match(hungarian).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch->Match(csls).ok());
}

TEST_P(RowRangeTest, EmptyOrOversizedRangeIsOutOfRange) {
  MatchEngine engine = Engine();
  const MatchOptions csls = MakePreset(AlgorithmPreset::kCsls);
  EXPECT_EQ(engine.BeginBatch(csls, 7, 7).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.BeginBatch(csls, 0, kRows + 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.workspace().in_use_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Inputs, RowRangeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "HalfSteps" : "Gaussian";
                         });

// The column statistics a row range reads equal ColMax / ColTopKMean of the
// full similarity matrix, whatever tile they are swept through, and are
// built once per snapshot.
TEST(ColumnStatisticTest, EqualsFullMatrixStatisticForEveryTile) {
  Result<std::shared_ptr<PairSnapshot>> snapshot = PairSnapshot::Build(
      Embeddings(kRows, 5, false), Embeddings(kTargets, 6, false));
  ASSERT_TRUE(snapshot.ok());
  const PairSnapshot& pair = **snapshot;
  Result<Matrix> similarity = ComputeSimilarity(
      pair.source(), pair.target(), SimilarityMetric::kCosine);
  ASSERT_TRUE(similarity.ok());
  const std::vector<float> col_max = ColMax(*similarity);
  const std::vector<float> col_mean = ColTopKMean(*similarity, 3);

  for (size_t tile_rows : {1u, 7u, 83u}) {
    Result<std::shared_ptr<PairSnapshot>> fresh =
        PairSnapshot::Build(Matrix(pair.source()), Matrix(pair.target()));
    ASSERT_TRUE(fresh.ok());
    Matrix tile(tile_rows, kTargets);
    Result<std::span<const float>> max = (*fresh)->EnsureColumnStatistic(
        SimilarityMetric::kCosine, ColumnStatistic::kMax, 0, &tile);
    Result<std::span<const float>> mean = (*fresh)->EnsureColumnStatistic(
        SimilarityMetric::kCosine, ColumnStatistic::kTopKMean, 3, &tile);
    ASSERT_TRUE(max.ok() && mean.ok());
    ASSERT_EQ(max->size(), kTargets);
    ASSERT_EQ(mean->size(), kTargets);
    const size_t bytes = kTargets * sizeof(float);
    EXPECT_EQ(std::memcmp(max->data(), col_max.data(), bytes), 0)
        << "tile rows " << tile_rows;
    EXPECT_EQ(std::memcmp(mean->data(), col_mean.data(), bytes), 0)
        << "tile rows " << tile_rows;
    // Memoized: the second call returns the same storage.
    Result<std::span<const float>> again = (*fresh)->EnsureColumnStatistic(
        SimilarityMetric::kCosine, ColumnStatistic::kTopKMean, 3, &tile);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->data(), mean->data());
  }
}

TEST(ColumnStatisticTest, RejectsZeroK) {
  Result<std::shared_ptr<PairSnapshot>> snapshot = PairSnapshot::Build(
      Embeddings(12, 5, false), Embeddings(9, 6, false));
  ASSERT_TRUE(snapshot.ok());
  Matrix tile(4, 9);
  EXPECT_EQ((*snapshot)
                ->EnsureColumnStatistic(SimilarityMetric::kCosine,
                                        ColumnStatistic::kTopKMean, 0, &tile)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Concurrent first use: every caller gets the one memo, with the bytes of
// the full-matrix statistic.
TEST(ColumnStatisticTest, ConcurrentFirstCallersShareOneBuild) {
  Result<std::shared_ptr<PairSnapshot>> snapshot = PairSnapshot::Build(
      Embeddings(kRows, 7, true), Embeddings(kTargets, 8, true));
  ASSERT_TRUE(snapshot.ok());
  constexpr int kThreads = 8;
  std::vector<const float*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Matrix tile(static_cast<size_t>(t) + 1, kTargets);
      Result<std::span<const float>> mean = (*snapshot)->EnsureColumnStatistic(
          SimilarityMetric::kCosine, ColumnStatistic::kTopKMean, 2, &tile);
      if (mean.ok()) seen[t] = mean->data();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  Result<Matrix> similarity =
      ComputeSimilarity((*snapshot)->source(), (*snapshot)->target(),
                        SimilarityMetric::kCosine);
  ASSERT_TRUE(similarity.ok());
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(std::memcmp(seen[0], ColTopKMean(*similarity, 2).data(),
                        kTargets * sizeof(float)),
            0);
}

}  // namespace
}  // namespace entmatcher
