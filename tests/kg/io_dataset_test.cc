#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "kg/dataset.h"
#include "kg/io.h"

namespace entmatcher {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("entmatcher_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TriplesRoundTrip) {
  auto g = KnowledgeGraph::Create(5, 3, {{0, 0, 1}, {2, 2, 4}, {3, 1, 0}});
  ASSERT_TRUE(g.ok());
  const std::string path = Path("triples.tsv");
  ASSERT_TRUE(WriteTriplesTsv(*g, path).ok());

  auto loaded = ReadTriplesTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->triples().size(), 3u);
  EXPECT_EQ(loaded->num_entities(), 5u);   // max id 4 + 1
  EXPECT_EQ(loaded->num_relations(), 3u);  // max id 2 + 1
  EXPECT_EQ(loaded->triples()[1], (Triple{2, 2, 4}));
}

TEST_F(IoTest, LinksRoundTrip) {
  AlignmentSet links({{1, 100}, {2, 200}});
  const std::string path = Path("links.tsv");
  ASSERT_TRUE(WriteLinksTsv(links, path).ok());
  auto loaded = ReadLinksTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(loaded->Contains(1, 100));
  EXPECT_TRUE(loaded->Contains(2, 200));
}

TEST_F(IoTest, NamesRoundTrip) {
  auto g = KnowledgeGraph::Create(2, 1, {{0, 0, 1}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g->SetEntityNames({"Alpha", "Beta Gamma"}).ok());
  const std::string path = Path("names.txt");
  ASSERT_TRUE(WriteEntityNames(*g, path).ok());
  auto names = ReadEntityNames(path);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[1], "Beta Gamma");
}

TEST_F(IoTest, WriteNamesWithoutNamesFails) {
  auto g = KnowledgeGraph::Create(2, 1, {{0, 0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(WriteEntityNames(*g, Path("x.txt")).ok());
}

TEST_F(IoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadTriplesTsv(Path("nope.tsv")).ok());
  EXPECT_FALSE(ReadLinksTsv(Path("nope.tsv")).ok());
  EXPECT_FALSE(ReadEntityNames(Path("nope.txt")).ok());
}

TEST_F(IoTest, ReadMalformedTriplesFails) {
  const std::string path = Path("bad.tsv");
  std::ofstream(path) << "1\t2\n";  // only two fields
  EXPECT_FALSE(ReadTriplesTsv(path).ok());

  std::ofstream(path) << "a\tb\tc\n";  // non-numeric
  EXPECT_FALSE(ReadTriplesTsv(path).ok());
}

// Every refusal names the file and the line.
TEST_F(IoTest, MalformedLinesNameTheFileAndLine) {
  const std::string path = Path("bad.tsv");
  std::ofstream(path) << "0\t0\t1\n\n1\t2\n";
  Result<KnowledgeGraph> short_line = ReadTriplesTsv(path);
  ASSERT_FALSE(short_line.ok());
  EXPECT_EQ(short_line.status().code(), StatusCode::kIoError);
  EXPECT_NE(short_line.status().message().find(
                path + ":3: expected 3 tab-separated fields"),
            std::string::npos)
      << short_line.status().ToString();

  std::ofstream(path) << "1\tx\n";
  Result<AlignmentSet> not_a_number = ReadLinksTsv(path);
  ASSERT_FALSE(not_a_number.ok());
  EXPECT_NE(not_a_number.status().message().find(
                path + ":1: failed to parse integer field: 'x'"),
            std::string::npos)
      << not_a_number.status().ToString();
}

// Entity ids size the graph, so a triple naming one at or above
// kMaxEntities is refused before anything is allocated from it.
TEST_F(IoTest, TripleEntityIdPastTheBoundIsRefused) {
  const std::string path = Path("big.tsv");
  std::ofstream(path) << "0\t0\t1\n2\t0\t" << kMaxEntities << "\n";
  Result<KnowledgeGraph> object = ReadTriplesTsv(path);
  ASSERT_FALSE(object.ok());
  EXPECT_EQ(object.status().code(), StatusCode::kIoError);
  EXPECT_NE(object.status().message().find(
                path + ":2: entity id " + std::to_string(kMaxEntities) +
                " is not below " + std::to_string(kMaxEntities)),
            std::string::npos)
      << object.status().ToString();

  std::ofstream(path) << "3000000000\t0\t5\n";
  Result<KnowledgeGraph> subject = ReadTriplesTsv(path);
  ASSERT_FALSE(subject.ok());
  EXPECT_NE(subject.status().message().find(path + ":1: entity id 3000000000"),
            std::string::npos)
      << subject.status().ToString();
}

TEST_F(IoTest, LinkEntityIdPastTheBoundIsRefused) {
  const std::string path = Path("links.tsv");
  std::ofstream(path) << "1\t2\n\n4000000000\t0\n";
  Result<AlignmentSet> source = ReadLinksTsv(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIoError);
  EXPECT_NE(source.status().message().find(path + ":3: entity id 4000000000"),
            std::string::npos)
      << source.status().ToString();

  std::ofstream(path) << "1\t" << kMaxEntities << "\n";
  Result<AlignmentSet> target = ReadLinksTsv(path);
  ASSERT_FALSE(target.ok());
  EXPECT_NE(target.status().message().find(path + ":1: entity id"),
            std::string::npos)
      << target.status().ToString();

  std::ofstream(path) << "1\t" << kMaxEntities - 1 << "\n";
  EXPECT_TRUE(ReadLinksTsv(path).ok());
}

TEST_F(IoTest, ReadSkipsBlankLines) {
  const std::string path = Path("blank.tsv");
  std::ofstream(path) << "0\t0\t1\n\n  \n2\t0\t1\n";
  auto g = ReadTriplesTsv(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->triples().size(), 2u);
}

// ---- PopulateTestCandidates --------------------------------------------------

TEST(DatasetTest, PopulateTestCandidatesFromTestLinks) {
  KgPairDataset d;
  d.split.test = AlignmentSet({{1, 10}, {2, 20}, {1, 11}});
  PopulateTestCandidates(&d);
  EXPECT_EQ(d.test_source_entities, (std::vector<EntityId>{1, 2}));
  EXPECT_EQ(d.test_target_entities, (std::vector<EntityId>{10, 20, 11}));
}

TEST(DatasetTest, PopulateTestCandidatesWithExtrasDeduplicates) {
  KgPairDataset d;
  d.split.test = AlignmentSet({{1, 10}});
  PopulateTestCandidates(&d, /*extra_sources=*/{1, 5, 5},
                         /*extra_targets=*/{99});
  EXPECT_EQ(d.test_source_entities, (std::vector<EntityId>{1, 5}));
  EXPECT_EQ(d.test_target_entities, (std::vector<EntityId>{10, 99}));
}

TEST(DatasetTest, StatsAggregation) {
  KgPairDataset d;
  auto src = KnowledgeGraph::Create(3, 2, {{0, 0, 1}, {1, 1, 2}});
  auto tgt = KnowledgeGraph::Create(2, 1, {{0, 0, 1}});
  ASSERT_TRUE(src.ok() && tgt.ok());
  d.source = std::move(src).value();
  d.target = std::move(tgt).value();
  EXPECT_EQ(d.TotalEntities(), 5u);
  EXPECT_EQ(d.TotalRelations(), 3u);
  EXPECT_EQ(d.TotalTriples(), 3u);
  EXPECT_DOUBLE_EQ(d.AverageDegree(), 3.0 / 5.0);
}

}  // namespace
}  // namespace entmatcher
