// Tests for the extension modules: streaming (blocked) matching and the
// probabilistic matcher with abstention.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/kg_pair_generator.h"
#include "embedding/propagation.h"
#include "matching/pipeline.h"
#include "matching/probabilistic.h"
#include "matching/streaming.h"
#include "matching/transforms.h"

namespace entmatcher {
namespace {

Matrix RandomEmbeddings(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : m.Row(i)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

/// Total links over every source row of a multi-link assignment.
size_t NumLinks(const MultiAssignment& a) {
  size_t total = 0;
  for (const auto& targets : a.targets_of_source) total += targets.size();
  return total;
}

// ---- Streaming -----------------------------------------------------------------

class StreamingEqualityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(StreamingEqualityTest, MatchesDensePipelineExactly) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t block = std::get<1>(GetParam());
  const Matrix src = RandomEmbeddings(157, 24, seed);
  const Matrix tgt = RandomEmbeddings(203, 24, seed + 1);

  for (bool csls : {false, true}) {
    MatchOptions dense_options;
    dense_options.transform =
        csls ? ScoreTransformKind::kCsls : ScoreTransformKind::kNone;
    dense_options.csls_k = 3;
    auto dense = MatchEmbeddings(src, tgt, dense_options);

    StreamingOptions streaming_options;
    streaming_options.use_csls = csls;
    streaming_options.csls_k = 3;
    streaming_options.block_rows = block;
    auto streamed = StreamingMatch(src, tgt, streaming_options);

    ASSERT_TRUE(dense.ok() && streamed.ok());
    EXPECT_EQ(dense->target_of_source, streamed->target_of_source)
        << "csls=" << csls << " block=" << block;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StreamingEqualityTest,
    ::testing::Combine(::testing::Values(1, 7, 42),
                       ::testing::Values(1, 17, 64, 1000)));

TEST(StreamingTest, Validation) {
  Matrix src = RandomEmbeddings(4, 8, 1);
  Matrix tgt = RandomEmbeddings(4, 8, 2);
  StreamingOptions options;
  options.block_rows = 0;
  EXPECT_FALSE(StreamingMatch(src, tgt, options).ok());
  options.block_rows = 16;
  options.use_csls = true;
  options.csls_k = 0;
  EXPECT_FALSE(StreamingMatch(src, tgt, options).ok());
  Matrix wrong = RandomEmbeddings(4, 9, 3);
  EXPECT_FALSE(StreamingMatch(src, wrong, StreamingOptions()).ok());
  EXPECT_FALSE(StreamingMatch(Matrix(), tgt, StreamingOptions()).ok());
}

TEST(StreamingTest, UsesBoundedWorkspace) {
  const Matrix src = RandomEmbeddings(512, 16, 5);
  const Matrix tgt = RandomEmbeddings(512, 16, 6);
  MemoryTracker& tracker = MemoryTracker::Global();
  const size_t base = tracker.current_bytes();
  tracker.ResetPeak();
  StreamingOptions options;
  options.block_rows = 16;
  auto a = StreamingMatch(src, tgt, options);
  ASSERT_TRUE(a.ok());
  const size_t peak = tracker.peak_bytes() - base;
  // Dense would need 512*512*4 = 1 MB for the score matrix alone; the
  // streamed peak must stay well below (blocks of 16 x 512 plus copies).
  EXPECT_LT(peak, 400u * 1024);
}

// ---- Probabilistic ---------------------------------------------------------------

TEST(ProbabilisticTest, AbstainsOnUniformlyWeakRows) {
  // Row 0 has one strong candidate; row 1 only weak ones below the no-match
  // pseudo-score.
  Matrix scores = Matrix::FromRows({{0.9f, 0.1f}, {0.2f, 0.25f}});
  ProbabilisticOptions options;
  options.no_match_score = 0.5;
  options.temperature = 0.05;
  options.accept_threshold = 0.3;
  auto a = ProbabilisticMatch(scores, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->targets_of_source[0], (std::vector<uint32_t>{0}));
  EXPECT_TRUE(a->targets_of_source[1].empty());
  EXPECT_EQ(NumLinks(*a), 1u);
}

TEST(ProbabilisticTest, EmitsMultipleLinksForTiedCandidates) {
  // Two equally strong candidates share the posterior; with a threshold
  // below 0.5 both are emitted — the non-1-to-1 capability.
  Matrix scores = Matrix::FromRows({{0.9f, 0.9f, 0.1f}});
  ProbabilisticOptions options;
  options.no_match_score = 0.3;
  options.temperature = 0.05;
  options.accept_threshold = 0.3;
  auto a = ProbabilisticMatch(scores, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->targets_of_source[0].size(), 2u);
}

TEST(ProbabilisticTest, Validation) {
  Matrix scores(2, 2);
  ProbabilisticOptions options;
  options.temperature = 0.0;
  EXPECT_FALSE(ProbabilisticMatch(scores, options).ok());
  options = ProbabilisticOptions();
  options.accept_threshold = 0.0;
  EXPECT_FALSE(ProbabilisticMatch(scores, options).ok());
  options.accept_threshold = 1.5;
  EXPECT_FALSE(ProbabilisticMatch(scores, options).ok());
  EXPECT_FALSE(ProbabilisticMatch(Matrix(), ProbabilisticOptions()).ok());
}

TEST(ProbabilisticTest, HigherNoMatchScoreNeverIncreasesLinks) {
  Rng rng(9);
  Matrix scores(20, 20);
  for (size_t i = 0; i < 20; ++i) {
    for (float& v : scores.Row(i)) {
      v = static_cast<float>(rng.NextUniform(0, 1));
    }
  }
  ProbabilisticOptions options;
  size_t previous = SIZE_MAX;
  for (double theta : {0.0, 0.3, 0.6, 0.9, 1.2}) {
    options.no_match_score = theta;
    auto a = ProbabilisticMatch(scores, options);
    ASSERT_TRUE(a.ok());
    EXPECT_LE(NumLinks(*a), previous);
    previous = NumLinks(*a);
  }
}

TEST(ProbabilisticTest, DatasetLevelRunWithCalibration) {
  KgPairGeneratorConfig c;
  c.name = "prob-test";
  c.seed = 21;
  c.num_core_concepts = 300;
  c.exclusive_fraction = 0.3;
  c.unmatchable_source_fraction = 0.3;
  c.avg_degree = 4.0;
  c.num_world_relations = 40;
  c.num_relations_source = 30;
  c.num_relations_target = 30;
  auto d = GenerateKgPair(c);
  ASSERT_TRUE(d.ok());
  auto emb = ComputeStructuralEmbeddings(*d, RreaModelConfig(2));
  ASSERT_TRUE(emb.ok());

  auto theta = CalibrateNoMatchScore(*d, *emb, ProbabilisticOptions());
  ASSERT_TRUE(theta.ok());

  auto predicted = RunProbabilisticMatching(*d, *emb, ProbabilisticOptions());
  ASSERT_TRUE(predicted.ok());
  // The probabilistic matcher must actually abstain on some of the
  // unmatchable sources: fewer links than test source candidates.
  EXPECT_LT(predicted->size(), d->test_source_entities.size());
  EXPECT_GT(predicted->size(), 0u);
}

TEST(ProbabilisticTest, CalibrationNeedsValidationLinks) {
  KgPairDataset d;
  EmbeddingPair emb;
  EXPECT_FALSE(CalibrateNoMatchScore(d, emb, ProbabilisticOptions()).ok());
}

// ---- RInf-k ------------------------------------------------------------------------

TEST(RinfKTest, KOneMatchesDefault) {
  Matrix s = RandomEmbeddings(10, 10, 3);
  auto a = RinfTransform(s, 1);
  auto b = RinfTransform(s);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 0.0f));
}

TEST(RinfKTest, LargerKChangesPreferences) {
  Matrix s = RandomEmbeddings(12, 12, 4);
  auto k1 = RinfTransform(s, 1);
  auto k5 = RinfTransform(s, 5);
  ASSERT_TRUE(k1.ok() && k5.ok());
  EXPECT_FALSE(k1->ApproxEquals(*k5, 1e-6f));
}

TEST(RinfKTest, RejectsZeroK) {
  EXPECT_FALSE(RinfTransform(Matrix(2, 2), 0).ok());
}

}  // namespace
}  // namespace entmatcher
