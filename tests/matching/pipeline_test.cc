#include "matching/pipeline.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/kg_pair_generator.h"
#include "embedding/propagation.h"
#include "matching/rl_matcher.h"

namespace entmatcher {
namespace {

KgPairDataset TinyDataset() {
  KgPairGeneratorConfig c;
  c.name = "pipe-test";
  c.seed = 31;
  c.num_core_concepts = 200;
  c.exclusive_fraction = 0.1;
  c.avg_degree = 4.0;
  c.num_world_relations = 30;
  c.num_relations_source = 25;
  c.num_relations_target = 20;
  auto d = GenerateKgPair(c);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

// ---- Presets ----------------------------------------------------------------

TEST(PresetTest, NamesAndCombinations) {
  EXPECT_STREQ(PresetName(AlgorithmPreset::kDInf), "DInf");
  EXPECT_STREQ(PresetName(AlgorithmPreset::kSinkhorn), "Sink.");
  EXPECT_STREQ(PresetName(AlgorithmPreset::kHungarian), "Hun.");
  EXPECT_STREQ(PresetName(AlgorithmPreset::kStableMatch), "SMat");
  EXPECT_STREQ(PresetName(AlgorithmPreset::kRinfWr), "RInf-wr");

  MatchOptions dinf = MakePreset(AlgorithmPreset::kDInf);
  EXPECT_EQ(dinf.transform, ScoreTransformKind::kNone);
  EXPECT_EQ(dinf.matcher, MatcherKind::kGreedy);

  MatchOptions hun = MakePreset(AlgorithmPreset::kHungarian);
  EXPECT_EQ(hun.transform, ScoreTransformKind::kNone);
  EXPECT_EQ(hun.matcher, MatcherKind::kHungarian);

  MatchOptions csls = MakePreset(AlgorithmPreset::kCsls);
  EXPECT_EQ(csls.transform, ScoreTransformKind::kCsls);
  EXPECT_EQ(csls.matcher, MatcherKind::kGreedy);

  MatchOptions rl = MakePreset(AlgorithmPreset::kRl);
  EXPECT_EQ(rl.matcher, MatcherKind::kRl);
}

TEST(PresetTest, PresetLists) {
  EXPECT_EQ(MainPresets().size(), 7u);
  EXPECT_EQ(ScalabilityPresets().size(), 9u);
}

// ---- Matrix-level pipeline ------------------------------------------------------

TEST(PipelineTest, PerfectEmbeddingsGivePerfectMatching) {
  // Paper Fig. 1(a): identical KGs + ideal representation learning. Every
  // algorithm must produce the identity alignment.
  Rng rng(1);
  const size_t n = 20, d = 16;
  Matrix emb(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : emb.Row(i)) v = static_cast<float>(rng.NextGaussian());
  }
  for (AlgorithmPreset preset :
       {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls, AlgorithmPreset::kRinf,
        AlgorithmPreset::kRinfWr, AlgorithmPreset::kRinfPb,
        AlgorithmPreset::kSinkhorn, AlgorithmPreset::kHungarian,
        AlgorithmPreset::kStableMatch}) {
    auto a = MatchEmbeddings(emb, emb, MakePreset(preset));
    ASSERT_TRUE(a.ok()) << PresetName(preset);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a->target_of_source[i], static_cast<int32_t>(i))
          << PresetName(preset) << " row " << i;
    }
  }
}

TEST(PipelineTest, MatchScoresRejectsRl) {
  Matrix s(3, 3);
  MatchOptions options;
  options.matcher = MatcherKind::kRl;
  EXPECT_FALSE(MatchScores(s, options).ok());
  EXPECT_FALSE(MatchEmbeddings(s, s, options).ok());
}

TEST(PipelineTest, ComputeScoresAppliesTransform) {
  Matrix emb = Matrix::FromRows({{1, 0}, {0, 1}});
  MatchOptions options;
  options.transform = ScoreTransformKind::kSinkhorn;
  options.sinkhorn_iterations = 50;
  auto scores = ComputeScores(emb, emb, options);
  ASSERT_TRUE(scores.ok());
  // Doubly-stochastic-ish output.
  EXPECT_NEAR(scores->At(0, 0) + scores->At(0, 1), 1.0, 0.05);
}

// ---- Dataset-level RunMatching ------------------------------------------------------

TEST(RunMatchingTest, AllPresetsProduceValidRuns) {
  KgPairDataset d = TinyDataset();
  auto emb = ComputeStructuralEmbeddings(d, RreaModelConfig(2));
  ASSERT_TRUE(emb.ok());
  for (AlgorithmPreset preset : ScalabilityPresets()) {
    MatchOptions options = MakePreset(preset);
    options.rl.epochs = 5;  // keep the test fast
    auto run = RunMatching(d, *emb, options);
    ASSERT_TRUE(run.ok()) << PresetName(preset);
    EXPECT_EQ(run->assignment.size(), d.test_source_entities.size());
    EXPECT_GT(run->predicted.size(), 0u);
    EXPECT_GE(run->seconds, 0.0);
    EXPECT_GT(run->peak_workspace_bytes, 0u);
    // Every predicted pair references test candidates.
    for (const EntityPair& p : run->predicted.pairs()) {
      EXPECT_LT(p.source, d.source.num_entities());
      EXPECT_LT(p.target, d.target.num_entities());
    }
  }
}

TEST(RunMatchingTest, FailsWithoutCandidates) {
  KgPairDataset d = TinyDataset();
  d.test_source_entities.clear();
  EmbeddingPair emb;
  emb.source = Matrix(d.source.num_entities(), 8);
  emb.target = Matrix(d.target.num_entities(), 8);
  EXPECT_FALSE(RunMatching(d, emb, MakePreset(AlgorithmPreset::kDInf)).ok());
}

// A dataset joined with embeddings of fewer entities is refused, naming the
// first test candidate the matrix has no row for, instead of reading past
// the matrix.
TEST(RunMatchingTest, RefusesEmbeddingsWithFewerRowsThanTheDataset) {
  KgPairDataset d = TinyDataset();
  EmbeddingPair emb;
  emb.source = Matrix(d.source.num_entities(), 8);
  emb.target = Matrix(10, 8);
  EntityId first_missing = 0;
  for (EntityId e : d.test_target_entities) {
    if (e >= 10) {
      first_missing = e;
      break;
    }
  }
  ASSERT_GE(first_missing, 10u);
  Result<MatchRun> run =
      RunMatching(d, emb, MakePreset(AlgorithmPreset::kDInf));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("entity id " +
                                         std::to_string(first_missing)),
            std::string::npos)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("of 10 rows"), std::string::npos)
      << run.status().ToString();
}

TEST(RunMatchingTest, HungarianYieldsOneToOnePredictions) {
  KgPairDataset d = TinyDataset();
  auto emb = ComputeStructuralEmbeddings(d, GcnModelConfig(2));
  ASSERT_TRUE(emb.ok());
  auto run = RunMatching(d, *emb, MakePreset(AlgorithmPreset::kHungarian));
  ASSERT_TRUE(run.ok());
  std::set<EntityId> used;
  for (const EntityPair& p : run->predicted.pairs()) {
    EXPECT_TRUE(used.insert(p.target).second);
  }
}

// ---- RL matcher ---------------------------------------------------------------------

TEST(RlMatcherTest, ProducesValidAssignment) {
  KgPairDataset d = TinyDataset();
  auto emb = ComputeStructuralEmbeddings(d, RreaModelConfig(2));
  ASSERT_TRUE(emb.ok());
  MatchOptions options = MakePreset(AlgorithmPreset::kRl);
  options.rl.epochs = 10;
  auto run = RunMatching(d, *emb, options);
  ASSERT_TRUE(run.ok());
  for (int32_t j : run->assignment.target_of_source) {
    ASSERT_GE(j, 0);
    ASSERT_LT(j, static_cast<int32_t>(d.test_target_entities.size()));
  }
}

TEST(RlMatcherTest, DeterministicGivenSeed) {
  KgPairDataset d = TinyDataset();
  auto emb = ComputeStructuralEmbeddings(d, GcnModelConfig(2));
  ASSERT_TRUE(emb.ok());
  MatchOptions options = MakePreset(AlgorithmPreset::kRl);
  options.rl.epochs = 5;
  auto a = RunMatching(d, *emb, options);
  auto b = RunMatching(d, *emb, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment.target_of_source, b->assignment.target_of_source);
}

TEST(RlMatcherTest, FallsBackToGreedyWithoutTrainLinks) {
  KgPairDataset d = TinyDataset();
  auto emb = ComputeStructuralEmbeddings(d, GcnModelConfig(2));
  ASSERT_TRUE(emb.ok());
  // Erase the train split.
  d.split.train = AlignmentSet();
  MatchOptions options = MakePreset(AlgorithmPreset::kRl);
  auto run = RunMatching(d, *emb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->assignment.size(), d.test_source_entities.size());
}

TEST(RlMatcherTest, ValidatesScoreShape) {
  KgPairDataset d = TinyDataset();
  auto emb = ComputeStructuralEmbeddings(d, GcnModelConfig(2));
  ASSERT_TRUE(emb.ok());
  Matrix wrong(3, 3);
  EXPECT_FALSE(RlMatch(d, *emb, wrong, RlMatcherOptions()).ok());
}

}  // namespace
}  // namespace entmatcher
