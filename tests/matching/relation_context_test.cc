#include "matching/relation_context.h"

#include <gtest/gtest.h>

#include "datagen/kg_pair_generator.h"
#include "embedding/propagation.h"
#include "la/similarity.h"
#include "la/topk.h"

namespace entmatcher {
namespace {

// A hand-built pair where the relation correspondence is unambiguous:
// source relation 0 <-> target relation 1, relation 1 <-> relation 0.
KgPairDataset ManualDataset() {
  KgPairDataset d;
  // Source: 0 -r0-> 1, 0 -r1-> 2, 3 -r0-> 1.
  auto src = KnowledgeGraph::Create(4, 2, {{0, 0, 1}, {0, 1, 2}, {3, 0, 1}});
  // Target: 0 -r1-> 1, 0 -r0-> 2, 3 -r1-> 1.
  auto tgt = KnowledgeGraph::Create(4, 2, {{0, 1, 1}, {0, 0, 2}, {3, 1, 1}});
  d.source = std::move(src).value();
  d.target = std::move(tgt).value();
  d.gold = AlignmentSet({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  d.split.train = AlignmentSet({{0, 0}, {1, 1}, {2, 2}});
  d.split.test = AlignmentSet({{3, 3}});
  PopulateTestCandidates(&d);
  return d;
}

TEST(RelationCorrespondenceTest, LearnsSwappedRelations) {
  KgPairDataset d = ManualDataset();
  RelationContextOptions options;
  options.smoothing = 0.0;
  auto model = RelationCorrespondence::Learn(d, options);
  ASSERT_TRUE(model.ok());
  // Around seed (0, 0): source r0(out)/r1(out) co-occur with target
  // r1(out)/r0(out) — the swapped correspondence must dominate same-id.
  const float swapped =
      model->Probability(0, false, 1, false);
  const float same = model->Probability(0, false, 0, false);
  EXPECT_GT(swapped, 0.0f);
  EXPECT_GE(swapped, same);
}

TEST(RelationCorrespondenceTest, RequiresTrainLinks) {
  KgPairDataset d = ManualDataset();
  d.split.train = AlignmentSet();
  EXPECT_FALSE(RelationCorrespondence::Learn(d, RelationContextOptions()).ok());
}

TEST(RelationCorrespondenceTest, RejectsNegativeSmoothing) {
  KgPairDataset d = ManualDataset();
  RelationContextOptions options;
  options.smoothing = -1.0;
  EXPECT_FALSE(RelationCorrespondence::Learn(d, options).ok());
}

TEST(RelationContextRescoreTest, ValidatesInput) {
  KgPairDataset d = ManualDataset();
  EXPECT_FALSE(
      RelationContextRescore(d, Matrix(5, 5), RelationContextOptions()).ok());
  RelationContextOptions options;
  options.candidates = 0;
  EXPECT_FALSE(RelationContextRescore(d, Matrix(1, 1), options).ok());
}

TEST(RelationContextRescoreTest, BoostsRelationCompatibleCandidate) {
  KgPairDataset d = ManualDataset();
  // Ambiguous raw scores for test source 3 (columns = test targets = {3}).
  // Extend the candidate columns by adding another test link first.
  Matrix scores(1, 1);
  scores.Fill(0.5f);
  auto rescored = RelationContextRescore(d, scores, RelationContextOptions());
  ASSERT_TRUE(rescored.ok());
  // Source 3 has r0(out); target 3 has r1(out); the learned correspondence
  // r0->r1 must produce a positive bonus.
  EXPECT_GT(rescored->At(0, 0), 0.5f);
}

TEST(RelationContextRescoreTest, ImprovesGreedyOnGeneratedData) {
  KgPairGeneratorConfig c;
  c.seed = 33;
  c.num_core_concepts = 400;
  c.avg_degree = 3.0;  // sparse: where relation evidence helps most
  c.num_world_relations = 40;
  c.num_relations_source = 35;
  c.num_relations_target = 30;
  auto d = GenerateKgPair(c);
  ASSERT_TRUE(d.ok());
  auto emb = ComputeStructuralEmbeddings(*d, RreaModelConfig(2));
  ASSERT_TRUE(emb.ok());

  const Matrix src = ExtractRows(emb->source, d->test_source_entities).value();
  const Matrix tgt = ExtractRows(emb->target, d->test_target_entities).value();
  auto raw = ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
  ASSERT_TRUE(raw.ok());

  auto accuracy = [&](const Matrix& scores) {
    const auto argmax = RowArgmax(scores);
    size_t correct = 0;
    for (size_t i = 0; i < argmax.size(); ++i) {
      if (d->split.test.Contains(d->test_source_entities[i],
                                 d->test_target_entities[argmax[i]])) {
        ++correct;
      }
    }
    return static_cast<double>(correct) / static_cast<double>(argmax.size());
  };

  const double before = accuracy(*raw);
  auto rescored = RelationContextRescore(*d, *raw, RelationContextOptions());
  ASSERT_TRUE(rescored.ok());
  const double after = accuracy(*rescored);
  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace entmatcher
