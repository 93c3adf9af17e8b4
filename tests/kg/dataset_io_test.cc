#include "kg/dataset_io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "datagen/kg_pair_generator.h"

namespace entmatcher {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("entmatcher_dsio_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Loads the saved dataset with `lines` as its unmatchable_src list and
  /// expects the load refused as kIoError naming that file's line `line`.
  void ExpectUnmatchablesRefused(const std::string& lines, int line) {
    { std::ofstream(dir_ / "unmatchable_src") << lines; }
    Result<KgPairDataset> loaded = LoadDatasetDir(dir_.string());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find("unmatchable_src:" +
                                             std::to_string(line)),
              std::string::npos)
        << loaded.status().ToString();
  }

  std::filesystem::path dir_;
};

KgPairDataset MakeDataset(double unmatchable = 0.0) {
  KgPairGeneratorConfig c;
  c.name = "dsio-test";
  c.seed = 5;
  c.num_core_concepts = 150;
  c.exclusive_fraction = 0.3;
  c.unmatchable_source_fraction = unmatchable;
  c.avg_degree = 3.5;
  c.num_world_relations = 25;
  c.num_relations_source = 20;
  c.num_relations_target = 18;
  auto d = GenerateKgPair(c);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  KgPairDataset original = MakeDataset();
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());

  auto loaded = LoadDatasetDir(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->source.triples().size(), original.source.triples().size());
  EXPECT_EQ(loaded->target.triples().size(), original.target.triples().size());
  EXPECT_EQ(loaded->gold.size(), original.gold.size());
  EXPECT_EQ(loaded->split.train.size(), original.split.train.size());
  EXPECT_EQ(loaded->split.valid.size(), original.split.valid.size());
  EXPECT_EQ(loaded->split.test.size(), original.split.test.size());
  // Names survive.
  ASSERT_TRUE(loaded->source.has_entity_names());
  EXPECT_EQ(loaded->source.EntityName(0), original.source.EntityName(0));
  // Candidate sets are re-derived identically (same link-order derivation).
  EXPECT_EQ(loaded->test_source_entities.size(),
            original.test_source_entities.size());
  // Gold content identical.
  for (const EntityPair& p : original.gold.pairs()) {
    EXPECT_TRUE(loaded->gold.Contains(p.source, p.target));
  }
}

TEST_F(DatasetIoTest, RoundTripPreservesUnmatchables) {
  KgPairDataset original = MakeDataset(/*unmatchable=*/0.3);
  const size_t linked = original.split.test.SourceEntities().size();
  ASSERT_GT(original.test_source_entities.size(), linked);

  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  auto loaded = LoadDatasetDir(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->test_source_entities.size(),
            original.test_source_entities.size());
}

// Unmatchable ids are parsed strictly: none wraps into the 32-bit id space,
// none is skipped, and none lies outside the graph.
TEST_F(DatasetIoTest, UnmatchableIdPastThirtyTwoBitsIsRefused) {
  ASSERT_TRUE(SaveDatasetDir(MakeDataset(0.3), dir_.string()).ok());
  ExpectUnmatchablesRefused("0\n4294967297\n", 2);  // was read as entity 1
}

TEST_F(DatasetIoTest, NegativeUnmatchableIdIsRefused) {
  ASSERT_TRUE(SaveDatasetDir(MakeDataset(0.3), dir_.string()).ok());
  ExpectUnmatchablesRefused("-1\n", 1);  // was read as 4294967295
}

TEST_F(DatasetIoTest, NonNumericUnmatchableIdIsRefused) {
  ASSERT_TRUE(SaveDatasetDir(MakeDataset(0.3), dir_.string()).ok());
  ExpectUnmatchablesRefused("0\n\nx1\n2\n", 3);  // used to end the list
}

TEST_F(DatasetIoTest, UnmatchableIdPastTheGraphIsRefused) {
  const KgPairDataset original = MakeDataset(0.3);
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  const size_t entities = original.source.num_entities();
  { std::ofstream(dir_ / "unmatchable_src") << entities - 1 << "\n"; }
  EXPECT_TRUE(LoadDatasetDir(dir_.string()).ok());
  ExpectUnmatchablesRefused(std::to_string(entities) + "\n", 1);
}

// LoadDatasetDir grows each graph to its largest link id + 1, so a link id
// at or above kMaxEntities is refused, naming ent_links and its line,
// instead of sizing a 4e9-entity graph.
TEST_F(DatasetIoTest, LinkIdPastTheEntityBoundIsRefused) {
  const KgPairDataset original = MakeDataset();
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  { std::ofstream(dir_ / "ent_links", std::ios::app) << "4000000000\t0\n"; }
  Result<KgPairDataset> loaded = LoadDatasetDir(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find(
                "ent_links:" + std::to_string(original.gold.size() + 1) +
                ": entity id 4000000000"),
            std::string::npos)
      << loaded.status().ToString();
}

// TransE and RelationCorrespondence size tables by n_rel_src * n_rel_tgt,
// so a pair spanning more than kMaxRelationPairs is refused, naming both
// triple files. Against a 1-relation target, and against an empty one
// (which counts as one), a source of exactly kMaxRelationPairs relations is
// admitted and one more is refused.
TEST_F(DatasetIoTest, RelationPairsPastTheBoundAreRefused) {
  const KgPairDataset original = MakeDataset();
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  {
    std::ofstream(dir_ / "rel_triples_1", std::ios::app)
        << "0\t3000000000\t1\n";
  }
  Result<KgPairDataset> loaded = LoadDatasetDir(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  for (const char* file : {"rel_triples_1 and ", "rel_triples_2 span "}) {
    EXPECT_NE(loaded.status().message().find(file), std::string::npos)
        << loaded.status().ToString();
  }

  for (const char* target_triples : {"0\t0\t1\n", ""}) {
    { std::ofstream(dir_ / "rel_triples_2") << target_triples; }
    for (const size_t relations : {kMaxRelationPairs, kMaxRelationPairs + 1}) {
      std::ofstream(dir_ / "rel_triples_1")
          << "0\t" << relations - 1 << "\t1\n";
      EXPECT_EQ(LoadDatasetDir(dir_.string()).ok(),
                relations == kMaxRelationPairs)
          << relations << " against '" << target_triples << "'";
    }
  }
}

TEST_F(DatasetIoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadDatasetDir((dir_ / "missing").string()).ok());
}

TEST_F(DatasetIoTest, LoadDirectoryMissingRequiredFileFails) {
  KgPairDataset original = MakeDataset();
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  std::filesystem::remove(dir_ / "ent_links");
  EXPECT_FALSE(LoadDatasetDir(dir_.string()).ok());
}

TEST_F(DatasetIoTest, NamesAreOptional) {
  KgPairDataset original = MakeDataset();
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  std::filesystem::remove(dir_ / "ent_names_1");
  std::filesystem::remove(dir_ / "ent_names_2");
  auto loaded = LoadDatasetDir(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->source.has_entity_names());
}

TEST_F(DatasetIoTest, DatasetNameIsDirectoryName) {
  KgPairDataset original = MakeDataset();
  ASSERT_TRUE(SaveDatasetDir(original, dir_.string()).ok());
  auto loaded = LoadDatasetDir(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name, dir_.filename().string());
}

}  // namespace
}  // namespace entmatcher
