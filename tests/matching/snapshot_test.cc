// PairSnapshot + SnapshotRegistry: build validation, shared-Core siblings,
// lazy derived caches (thread-safe, built once), version stamping, and the
// lifetime of displaced versions (they live as long as their last reader).

#include "matching/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/candidate_index.h"

namespace entmatcher {
namespace {

Matrix RandomEmbeddings(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, dim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

std::shared_ptr<PairSnapshot> MakeSnapshot(size_t rows = 12, size_t cols = 16,
                                           size_t dim = 8) {
  Result<std::shared_ptr<PairSnapshot>> snapshot = PairSnapshot::Build(
      RandomEmbeddings(rows, dim, 3), RandomEmbeddings(cols, dim, 4));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::move(snapshot).value();
}

TEST(PairSnapshotTest, BuildValidatesShapes) {
  EXPECT_FALSE(PairSnapshot::Build(Matrix(), RandomEmbeddings(4, 8, 1)).ok());
  EXPECT_FALSE(PairSnapshot::Build(RandomEmbeddings(4, 8, 1), Matrix()).ok());
  EXPECT_FALSE(
      PairSnapshot::Build(RandomEmbeddings(4, 8, 1), RandomEmbeddings(4, 6, 2))
          .ok());
  EXPECT_TRUE(
      PairSnapshot::Build(RandomEmbeddings(4, 8, 1), RandomEmbeddings(4, 8, 2))
          .ok());
}

TEST(PairSnapshotTest, StartsUnpublishedWithoutIndex) {
  std::shared_ptr<PairSnapshot> snapshot = MakeSnapshot();
  EXPECT_EQ(snapshot->version(), 0u);
  EXPECT_EQ(snapshot->index(), nullptr);
}

TEST(PairSnapshotTest, EnsureCacheIsBuiltOnceAndStable) {
  std::shared_ptr<PairSnapshot> snapshot = MakeSnapshot();
  const SimilarityCache& first = snapshot->EnsureCache(SimilarityMetric::kCosine);
  const SimilarityCache& again =
      snapshot->EnsureCache(SimilarityMetric::kCosine);
  EXPECT_EQ(&first, &again) << "cache rebuilt on second use";
  // A different metric gets its own slot.
  const SimilarityCache& euclid =
      snapshot->EnsureCache(SimilarityMetric::kNegEuclidean);
  EXPECT_NE(&first, &euclid);
}

TEST(PairSnapshotTest, ConcurrentEnsureCacheYieldsOneCache) {
  std::shared_ptr<PairSnapshot> snapshot = MakeSnapshot(64, 64, 16);
  constexpr int kThreads = 8;
  std::vector<const SimilarityCache*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = &snapshot->EnsureCache(SimilarityMetric::kCosine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(PairSnapshotTest, WithIndexSharesCoreAndCaches) {
  std::shared_ptr<PairSnapshot> base = MakeSnapshot(12, 16, 8);
  const SimilarityCache& cache = base->EnsureCache(SimilarityMetric::kCosine);
  Result<CandidateIndex> index =
      CandidateIndex::Build(base->target(), CandidateIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto shared_index = std::make_shared<const CandidateIndex>(
      std::move(index).value());
  std::shared_ptr<PairSnapshot> sibling = base->WithIndex(shared_index);
  EXPECT_EQ(sibling->index(), shared_index.get());
  // Same Core: the embeddings and the already-built cache are the same
  // objects, not copies.
  EXPECT_EQ(&sibling->source(), &base->source());
  EXPECT_EQ(&sibling->EnsureCache(SimilarityMetric::kCosine), &cache);
  // Detach again.
  std::shared_ptr<PairSnapshot> detached = sibling->WithIndex(nullptr);
  EXPECT_EQ(detached->index(), nullptr);
}

TEST(SnapshotRegistryTest, PublishStampsMonotonicVersions) {
  SnapshotRegistry registry;
  Result<uint64_t> v1 = registry.Publish("pair", MakeSnapshot());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1u);
  Result<uint64_t> v2 = registry.Publish("pair", MakeSnapshot());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  std::shared_ptr<const PairSnapshot> current = registry.Acquire("pair");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version(), 2u);
  EXPECT_EQ(registry.Acquire("other"), nullptr);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"pair"});
}

TEST(SnapshotRegistryTest, AcquiredReferenceSurvivesPublish) {
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Publish("pair", MakeSnapshot()).ok());
  std::shared_ptr<const PairSnapshot> old = registry.Acquire("pair");
  const float first_value = old->source().Row(0)[0];
  ASSERT_TRUE(registry.Publish("pair", MakeSnapshot()).ok());
  // The displaced version stays readable through our reference.
  EXPECT_EQ(old->version(), 1u);
  EXPECT_EQ(old->source().Row(0)[0], first_value);
  EXPECT_EQ(registry.Acquire("pair")->version(), 2u);
}

TEST(SnapshotRegistryTest, DisplacedSnapshotLivesUntilItsLastReader) {
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Publish("pair", MakeSnapshot()).ok());
  std::shared_ptr<const PairSnapshot> reader = registry.Acquire("pair");
  std::weak_ptr<const PairSnapshot> displaced = reader;
  ASSERT_TRUE(registry.Publish("pair", MakeSnapshot()).ok());
  EXPECT_FALSE(displaced.expired())
      << "displaced snapshot freed under an active reader";
  reader.reset();
  EXPECT_TRUE(displaced.expired())
      << "displaced snapshot outlived its last reader";
}

}  // namespace
}  // namespace entmatcher
