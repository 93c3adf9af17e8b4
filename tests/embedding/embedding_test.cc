#include <gtest/gtest.h>

#include "datagen/kg_pair_generator.h"
#include "embedding/fusion.h"
#include "embedding/name_encoder.h"
#include "embedding/propagation.h"
#include "embedding/provider.h"
#include "eval/metrics.h"
#include "la/similarity.h"
#include "la/topk.h"

namespace entmatcher {
namespace {

KgPairDataset SmallDataset(uint64_t seed = 77) {
  KgPairGeneratorConfig c;
  c.name = "emb-test";
  c.seed = seed;
  c.num_core_concepts = 400;
  c.exclusive_fraction = 0.1;
  c.avg_degree = 4.5;
  c.num_world_relations = 60;
  c.num_relations_source = 50;
  c.num_relations_target = 45;
  auto d = GenerateKgPair(c);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

// Greedy accuracy of embeddings on the test links (Hits@1).
double GreedyAccuracy(const KgPairDataset& d, const EmbeddingPair& emb) {
  const Matrix src = ExtractRows(emb.source, d.test_source_entities).value();
  const Matrix tgt = ExtractRows(emb.target, d.test_target_entities).value();
  auto sim = ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
  EXPECT_TRUE(sim.ok());
  const auto argmax = RowArgmax(*sim);
  size_t correct = 0;
  for (size_t i = 0; i < argmax.size(); ++i) {
    if (d.split.test.Contains(d.test_source_entities[i],
                              d.test_target_entities[argmax[i]])) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(argmax.size());
}

TEST(ExtractRowsTest, GathersRequestedRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Result<Matrix> out = ExtractRows(m, {2, 0});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->rows(), 2u);
  EXPECT_EQ(out->At(0, 0), 5.0f);
  EXPECT_EQ(out->At(1, 1), 2.0f);
}

TEST(ExtractRowsTest, RefusesAnIdWithNoRow) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Result<Matrix> out = ExtractRows(m, {0, 3});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("entity id 3"), std::string::npos);
  EXPECT_NE(out.status().message().find("of 3 rows"), std::string::npos);
}

TEST(PropagationTest, ShapesAndDeterminism) {
  KgPairDataset d = SmallDataset();
  PropagationConfig config = GcnModelConfig(3);
  auto a = ComputeStructuralEmbeddings(d, config);
  auto b = ComputeStructuralEmbeddings(d, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->source.rows(), d.source.num_entities());
  EXPECT_EQ(a->target.rows(), d.target.num_entities());
  EXPECT_EQ(a->dim(), config.dim);
  EXPECT_TRUE(a->source.ApproxEquals(b->source, 0.0f));
  EXPECT_TRUE(a->target.ApproxEquals(b->target, 0.0f));
}

TEST(PropagationTest, ConcatLayersWidensOutput) {
  KgPairDataset d = SmallDataset();
  PropagationConfig config = RreaModelConfig(3);
  auto emb = ComputeStructuralEmbeddings(d, config);
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb->dim(), config.dim * config.layers);
}

TEST(PropagationTest, EmbeddingsCarryAlignmentSignal) {
  KgPairDataset d = SmallDataset();
  auto emb = ComputeStructuralEmbeddings(d, GcnModelConfig(3));
  ASSERT_TRUE(emb.ok());
  // Far better than random (1/|targets| ~ 0.4%).
  EXPECT_GT(GreedyAccuracy(d, *emb), 0.05);
}

TEST(PropagationTest, RreaModelBeatsGcnModel) {
  KgPairDataset d = SmallDataset();
  auto gcn = ComputeStructuralEmbeddings(d, GcnModelConfig(3));
  auto rrea = ComputeStructuralEmbeddings(d, RreaModelConfig(3));
  ASSERT_TRUE(gcn.ok() && rrea.ok());
  EXPECT_GT(GreedyAccuracy(d, *rrea), GreedyAccuracy(d, *gcn));
}

TEST(PropagationTest, ValidatesConfig) {
  KgPairDataset d = SmallDataset();
  PropagationConfig c = GcnModelConfig(1);
  c.dim = 0;
  EXPECT_FALSE(ComputeStructuralEmbeddings(d, c).ok());
  c = GcnModelConfig(1);
  c.layers = 0;
  EXPECT_FALSE(ComputeStructuralEmbeddings(d, c).ok());
  c = GcnModelConfig(1);
  c.self_weight = 1.0;
  EXPECT_FALSE(ComputeStructuralEmbeddings(d, c).ok());
}

// ---- Name encoder ------------------------------------------------------------

TEST(NameEncoderTest, IdenticalNamesIdenticalVectors) {
  NameEncoderConfig config;
  std::vector<float> a(config.dim), b(config.dim);
  EncodeName("Barack Obama", config, a.data());
  EncodeName("Barack Obama", config, b.data());
  EXPECT_EQ(a, b);
}

TEST(NameEncoderTest, CaseInsensitive) {
  NameEncoderConfig config;
  std::vector<float> a(config.dim), b(config.dim);
  EncodeName("HELLO", config, a.data());
  EncodeName("hello", config, b.data());
  EXPECT_EQ(a, b);
}

TEST(NameEncoderTest, OutputIsUnitNorm) {
  NameEncoderConfig config;
  std::vector<float> v(config.dim);
  EncodeName("Some Entity", config, v.data());
  double sq = 0.0;
  for (float x : v) sq += static_cast<double>(x) * x;
  EXPECT_NEAR(sq, 1.0, 1e-5);
}

TEST(NameEncoderTest, SimilarNamesMoreSimilarThanDissimilar) {
  NameEncoderConfig config;
  std::vector<float> a(config.dim), b(config.dim), c(config.dim);
  EncodeName("Brandol Kemin", config, a.data());
  EncodeName("Brandol Kemins", config, b.data());  // near-duplicate
  EncodeName("Xyzzyq Vortran", config, c.data());  // unrelated
  auto dot = [&](const std::vector<float>& x, const std::vector<float>& y) {
    double s = 0.0;
    for (size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
    return s;
  };
  EXPECT_GT(dot(a, b), dot(a, c) + 0.3);
}

TEST(NameEncoderTest, SeedChangesHashing) {
  NameEncoderConfig c1;
  NameEncoderConfig c2;
  c2.seed = c1.seed + 1;
  std::vector<float> a(c1.dim), b(c2.dim);
  EncodeName("Entity", c1, a.data());
  EncodeName("Entity", c2, b.data());
  EXPECT_NE(a, b);
}

TEST(NameEncoderTest, DatasetEncoding) {
  KgPairDataset d = SmallDataset();
  NameEncoderConfig config;
  auto emb = ComputeNameEmbeddings(d, config);
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb->source.rows(), d.source.num_entities());
  EXPECT_EQ(emb->dim(), config.dim);
  // Name embeddings should carry strong alignment signal on this dataset.
  EXPECT_GT(GreedyAccuracy(d, *emb), 0.3);
}

TEST(NameEncoderTest, FailsWithoutNames) {
  KgPairDataset d;
  auto src = KnowledgeGraph::Create(2, 1, {{0, 0, 1}});
  auto tgt = KnowledgeGraph::Create(2, 1, {{0, 0, 1}});
  d.source = std::move(src).value();
  d.target = std::move(tgt).value();
  EXPECT_FALSE(ComputeNameEmbeddings(d, NameEncoderConfig()).ok());
}

TEST(NameEncoderTest, RejectsZeroDim) {
  KgPairDataset d = SmallDataset();
  NameEncoderConfig config;
  config.dim = 0;
  EXPECT_FALSE(ComputeNameEmbeddings(d, config).ok());
}

// ---- Fusion --------------------------------------------------------------------

TEST(FusionTest, CosineIsWeightedMixOfChannels) {
  EmbeddingPair a;
  a.source = Matrix::FromRows({{1, 0}});
  a.target = Matrix::FromRows({{1, 0}});
  EmbeddingPair b;
  b.source = Matrix::FromRows({{0, 1, 0}});
  b.target = Matrix::FromRows({{0, 0, 1}});
  // Channel a cosine = 1, channel b cosine = 0.
  auto fused = FuseEmbeddings(a, b, 1.0, 1.0);
  ASSERT_TRUE(fused.ok());
  auto sim =
      ComputeSimilarity(fused->source, fused->target, SimilarityMetric::kCosine);
  ASSERT_TRUE(sim.ok());
  EXPECT_NEAR(sim->At(0, 0), 0.5, 1e-5);  // (1*1 + 1*0) / (1+1)

  auto weighted = FuseEmbeddings(a, b, 1.0, 3.0);
  ASSERT_TRUE(weighted.ok());
  auto sim2 = ComputeSimilarity(weighted->source, weighted->target,
                                SimilarityMetric::kCosine);
  ASSERT_TRUE(sim2.ok());
  EXPECT_NEAR(sim2->At(0, 0), 1.0 / 10.0, 1e-5);  // 1/(1+9)
}

TEST(FusionTest, RejectsMismatchedRowCountsAndBadWeights) {
  EmbeddingPair a;
  a.source = Matrix(2, 3);
  a.target = Matrix(2, 3);
  EmbeddingPair b;
  b.source = Matrix(3, 3);
  b.target = Matrix(2, 3);
  EXPECT_FALSE(FuseEmbeddings(a, b, 1.0, 1.0).ok());
  b.source = Matrix(2, 5);
  EXPECT_TRUE(FuseEmbeddings(a, b, 1.0, 1.0).ok());  // dims may differ
  EXPECT_FALSE(FuseEmbeddings(a, b, -1.0, 1.0).ok());
  EXPECT_FALSE(FuseEmbeddings(a, b, 0.0, 0.0).ok());
}

// ---- Provider ------------------------------------------------------------------

TEST(ProviderTest, Prefixes) {
  EXPECT_STREQ(EmbeddingSettingPrefix(EmbeddingSetting::kGcnStruct), "G");
  EXPECT_STREQ(EmbeddingSettingPrefix(EmbeddingSetting::kRreaStruct), "R");
  EXPECT_STREQ(EmbeddingSettingPrefix(EmbeddingSetting::kNameOnly), "N");
  EXPECT_STREQ(EmbeddingSettingPrefix(EmbeddingSetting::kNameRrea), "NR");
}

TEST(ProviderTest, AllSettingsProduceEmbeddings) {
  KgPairDataset d = SmallDataset();
  for (EmbeddingSetting setting :
       {EmbeddingSetting::kGcnStruct, EmbeddingSetting::kRreaStruct,
        EmbeddingSetting::kNameOnly, EmbeddingSetting::kNameRrea}) {
    auto emb = ComputeEmbeddings(d, setting);
    ASSERT_TRUE(emb.ok());
    EXPECT_EQ(emb->source.rows(), d.source.num_entities());
    EXPECT_GT(emb->dim(), 0u);
  }
}

TEST(ProviderTest, FusionImprovesOverWeakerChannel) {
  KgPairDataset d = SmallDataset();
  auto gcn = ComputeEmbeddings(d, EmbeddingSetting::kGcnStruct);
  auto fused = ComputeEmbeddings(d, EmbeddingSetting::kNameRrea);
  ASSERT_TRUE(gcn.ok() && fused.ok());
  EXPECT_GT(GreedyAccuracy(d, *fused), GreedyAccuracy(d, *gcn));
}

}  // namespace
}  // namespace entmatcher
