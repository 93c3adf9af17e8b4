#include "kg/alignment.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace entmatcher {
namespace {

TEST(AlignmentSetTest, ContainsAndLookups) {
  AlignmentSet set({{1, 10}, {2, 20}, {1, 11}});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(1, 10));
  EXPECT_TRUE(set.Contains(1, 11));
  EXPECT_FALSE(set.Contains(1, 20));
  EXPECT_FALSE(set.Contains(3, 30));

  auto targets = set.TargetsOf(1);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<EntityId>{10, 11}));
  EXPECT_TRUE(set.TargetsOf(99).empty());
}

TEST(AlignmentSetTest, DistinctEntityLists) {
  AlignmentSet set({{1, 10}, {1, 11}, {2, 10}});
  EXPECT_EQ(set.SourceEntities(), (std::vector<EntityId>{1, 2}));
  EXPECT_EQ(set.TargetEntities(), (std::vector<EntityId>{10, 11}));
}

TEST(AlignmentSetTest, CountOneToOneLinks) {
  // (1,10) is 1-to-1; the cluster {2,3} x {20} is not; (4,40) is.
  AlignmentSet set({{1, 10}, {2, 20}, {3, 20}, {4, 40}});
  EXPECT_EQ(set.CountOneToOneLinks(), 2u);
}

TEST(AlignmentSetTest, AddUpdatesIndexes) {
  AlignmentSet set;
  EXPECT_TRUE(set.empty());
  set.Add({5, 50});
  EXPECT_TRUE(set.Contains(5, 50));
  EXPECT_EQ(set.size(), 1u);
}

std::vector<EntityPair> MakePairs(size_t n) {
  std::vector<EntityPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({static_cast<EntityId>(i), static_cast<EntityId>(i + 1000)});
  }
  return pairs;
}

TEST(SplitAlignmentTest, FractionsAndDisjointCover) {
  AlignmentSet gold(MakePairs(100));
  Rng rng(1);
  auto split = SplitAlignment(gold, 0.2, 0.1, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.size(), 20u);
  EXPECT_EQ(split->valid.size(), 10u);
  EXPECT_EQ(split->test.size(), 70u);

  // Disjoint and covering.
  std::set<EntityId> seen;
  for (const auto* part : {&split->train, &split->valid, &split->test}) {
    for (const EntityPair& p : part->pairs()) {
      EXPECT_TRUE(seen.insert(p.source).second);
    }
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(SplitAlignmentTest, RejectsBadFractions) {
  AlignmentSet gold(MakePairs(10));
  Rng rng(1);
  EXPECT_FALSE(SplitAlignment(gold, 0.8, 0.3, &rng).ok());
  EXPECT_FALSE(SplitAlignment(gold, -0.1, 0.1, &rng).ok());
}

TEST(SplitAlignmentTest, DeterministicGivenSeed) {
  AlignmentSet gold(MakePairs(50));
  Rng rng1(9);
  Rng rng2(9);
  auto a = SplitAlignment(gold, 0.2, 0.1, &rng1);
  auto b = SplitAlignment(gold, 0.2, 0.1, &rng2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->train.pairs().size(), b->train.pairs().size());
  for (size_t i = 0; i < a->train.size(); ++i) {
    EXPECT_EQ(a->train.pairs()[i], b->train.pairs()[i]);
  }
}

TEST(SplitPreservingClustersTest, LinksSharingEntitiesStayTogether) {
  // Two clusters: {(1,10),(1,11),(2,11)} and {(5,50)}; plus singles.
  std::vector<EntityPair> pairs = {{1, 10}, {1, 11}, {2, 11}, {5, 50},
                                   {6, 60}, {7, 70}, {8, 80}, {9, 90}};
  AlignmentSet gold(pairs);
  Rng rng(3);
  auto split = SplitAlignmentPreservingClusters(gold, 0.3, 0.2, &rng);
  ASSERT_TRUE(split.ok());

  // The three linked pairs must be in the same part.
  auto part_of = [&](EntityId s, EntityId t) {
    if (split->train.Contains(s, t)) return 0;
    if (split->valid.Contains(s, t)) return 1;
    if (split->test.Contains(s, t)) return 2;
    return -1;
  };
  const int p = part_of(1, 10);
  ASSERT_NE(p, -1);
  EXPECT_EQ(part_of(1, 11), p);
  EXPECT_EQ(part_of(2, 11), p);

  // Everything is assigned exactly once.
  EXPECT_EQ(split->train.size() + split->valid.size() + split->test.size(),
            pairs.size());
}

TEST(SplitPreservingClustersTest, LargeClusterIntegrityProperty) {
  // Build chains: (i, t), (i, t+1), (i+1, t+1) — forcing shared entities.
  std::vector<EntityPair> pairs;
  for (EntityId i = 0; i < 60; i += 2) {
    pairs.push_back({i, 1000 + i});
    pairs.push_back({i, 1000 + i + 1});
    pairs.push_back({i + 1, 1000 + i + 1});
  }
  AlignmentSet gold(pairs);
  Rng rng(11);
  auto split = SplitAlignmentPreservingClusters(gold, 0.7, 0.1, &rng);
  ASSERT_TRUE(split.ok());

  // No entity (either side) appears in more than one part.
  auto entities_of = [](const AlignmentSet& s) {
    std::set<uint64_t> out;
    for (const EntityPair& p : s.pairs()) {
      out.insert(p.source);
      out.insert(1ull << 32 | p.target);
    }
    return out;
  };
  auto train_e = entities_of(split->train);
  auto valid_e = entities_of(split->valid);
  auto test_e = entities_of(split->test);
  for (uint64_t e : train_e) {
    EXPECT_EQ(valid_e.count(e), 0u);
    EXPECT_EQ(test_e.count(e), 0u);
  }
  for (uint64_t e : valid_e) EXPECT_EQ(test_e.count(e), 0u);
}

}  // namespace
}  // namespace entmatcher
