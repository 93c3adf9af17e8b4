// Backend parity: the approximation contract must hold for every candidate
// backend, not just IVF. Whatever cells a backend emits, their raw scores are
// bitwise the dense similarity cells — for every sparse-capable preset's
// metric, at every kernel tier, at 1 and 7 threads — and the exact backend's
// complete lists reproduce the whole dense pipeline (transforms + matchers)
// bit for bit, mirroring the IVF suite in sparse_match_test.cc.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/candidate_index.h"
#include "la/kernels/dispatch.h"
#include "la/similarity.h"
#include "la/sparse.h"
#include "matching/engine.h"
#include "matching/pipeline.h"

namespace entmatcher {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

std::vector<AlgorithmPreset> SparseCapablePresets() {
  return {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls,
          AlgorithmPreset::kRinf, AlgorithmPreset::kRinfWr,
          AlgorithmPreset::kRinfPb};
}

std::vector<MatcherKind> SparseCapableMatchers() {
  return {MatcherKind::kGreedy, MatcherKind::kGreedyOneToOne,
          MatcherKind::kMutualBest};
}

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  for (KernelTier tier : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

bool SameEntries(const SparseScores& a, const SparseScores& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return false;
  }
  if (a.row_offsets() != b.row_offsets()) return false;
  return std::memcmp(a.values(), b.values(), a.nnz() * sizeof(float)) == 0 &&
         std::memcmp(a.col_indices(), b.col_indices(),
                     a.nnz() * sizeof(uint32_t)) == 0;
}

MatchOptions WithIndex(MatchOptions options, const CandidateIndex* index,
                       size_t candidates) {
  options.candidate_index = index;
  options.num_candidates = candidates;
  return options;
}

class BackendParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = GetNumThreads();
    previous_tier_ = ActiveKernelTier();
  }
  void TearDown() override {
    SetNumThreads(previous_threads_);
    ASSERT_TRUE(SetKernelTier(previous_tier_).ok());
  }

 private:
  size_t previous_threads_;
  KernelTier previous_tier_;
};

// Every entry the graph emits carries the exact dense score of its cell, for
// each preset's metric, under every kernel tier and both thread counts. The
// probe itself is scalar-float and tier-independent, so the emitted id sets
// must also agree across tiers.
TEST_F(BackendParityTest, HnswEntriesBitIdenticalToDenseEverywhere) {
  const Matrix src = RandomMatrix(35, 12, 201);
  const Matrix tgt = RandomMatrix(43, 12, 202);
  CandidateIndexOptions index_options;
  index_options.backend = CandidateBackendKind::kHnsw;
  index_options.hnsw_max_links = 8;
  index_options.hnsw_ef_construction = 48;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());

  for (KernelTier tier : AvailableTiers()) {
    ASSERT_TRUE(SetKernelTier(tier).ok());
    for (AlgorithmPreset preset : SparseCapablePresets()) {
      const SimilarityMetric metric = MakePreset(preset).metric;
      Result<Matrix> dense = ComputeSimilarity(src, tgt, metric);
      ASSERT_TRUE(dense.ok());

      SetNumThreads(1);
      Result<SparseScores> serial = index->SparseSimilarity(
          src, tgt, metric, /*num_candidates=*/7, /*nprobe=*/1);
      ASSERT_TRUE(serial.ok())
          << KernelTierName(tier) << "/" << PresetName(preset);
      ASSERT_TRUE(serial->Validate().ok());
      SetNumThreads(7);
      Result<SparseScores> parallel = index->SparseSimilarity(
          src, tgt, metric, /*num_candidates=*/7, /*nprobe=*/1);
      ASSERT_TRUE(parallel.ok());
      EXPECT_TRUE(SameEntries(*serial, *parallel))
          << KernelTierName(tier) << "/" << PresetName(preset)
          << ": thread count changed the emitted entries";

      for (size_t i = 0; i < serial->rows(); ++i) {
        auto values = serial->RowValues(i);
        auto cols = serial->RowCols(i);
        ASSERT_FALSE(values.empty())
            << KernelTierName(tier) << "/" << PresetName(preset) << " row "
            << i << " starved";
        for (size_t p = 0; p < values.size(); ++p) {
          const float expected = dense->Row(i)[cols[p]];
          ASSERT_EQ(std::memcmp(&values[p], &expected, sizeof(float)), 0)
              << KernelTierName(tier) << "/" << PresetName(preset) << " cell ("
              << i << ", " << cols[p] << ")";
        }
      }
    }
  }
}

// End-to-end through the engine: with an HNSW index the transformed sparse
// batch and every matcher's assignment are invariant to the thread count.
TEST_F(BackendParityTest, HnswBatchesThreadCountInvariantForEveryPreset) {
  const Matrix src = RandomMatrix(39, 10, 211);
  const Matrix tgt = RandomMatrix(45, 10, 212);
  CandidateIndexOptions index_options;
  index_options.backend = CandidateBackendKind::kHnsw;
  index_options.hnsw_max_links = 8;
  index_options.hnsw_ef_construction = 48;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());

  for (AlgorithmPreset preset : SparseCapablePresets()) {
    const MatchOptions options =
        WithIndex(MakePreset(preset), &*index, /*candidates=*/6);
    Result<MatchEngine> engine = MatchEngine::Create(src, tgt, options);
    ASSERT_TRUE(engine.ok());

    SetNumThreads(1);
    Result<MatchEngine::ScoredBatch> serial = engine->BeginBatch(options);
    ASSERT_TRUE(serial.ok()) << PresetName(preset);
    ASSERT_TRUE(serial->is_sparse());
    SetNumThreads(7);
    Result<MatchEngine::ScoredBatch> parallel = engine->BeginBatch(options);
    ASSERT_TRUE(parallel.ok()) << PresetName(preset);
    EXPECT_TRUE(
        SameEntries(serial->sparse_scores(), parallel->sparse_scores()))
        << PresetName(preset);

    for (MatcherKind matcher : SparseCapableMatchers()) {
      MatchOptions match_options = options;
      match_options.matcher = matcher;
      SetNumThreads(1);
      Result<Assignment> a = serial->Match(match_options);
      SetNumThreads(7);
      Result<Assignment> b = parallel->Match(match_options);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->target_of_source, b->target_of_source)
          << PresetName(preset);
    }
  }
}

// The exact backend proposes all m targets, so — like IVF with complete
// lists — the whole sparse pipeline must reproduce the dense one bit for
// bit: transformed values AND matcher decisions, at both thread counts.
TEST_F(BackendParityTest, ExactBackendBitIdenticalToDensePipeline) {
  const Matrix src = RandomMatrix(41, 12, 221);
  const Matrix tgt = RandomMatrix(37, 12, 222);
  CandidateIndexOptions index_options;
  index_options.backend = CandidateBackendKind::kExact;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());

  for (size_t threads : {1u, 7u}) {
    SetNumThreads(threads);
    for (AlgorithmPreset preset : SparseCapablePresets()) {
      const MatchOptions dense_options = MakePreset(preset);
      const MatchOptions sparse_options =
          WithIndex(dense_options, &*index, tgt.rows());

      Result<MatchEngine> engine =
          MatchEngine::Create(src, tgt, dense_options);
      ASSERT_TRUE(engine.ok());
      Result<Matrix> dense_scores = engine->TransformedScores(dense_options);
      ASSERT_TRUE(dense_scores.ok()) << PresetName(preset);

      Result<MatchEngine::ScoredBatch> batch =
          engine->BeginBatch(sparse_options);
      ASSERT_TRUE(batch.ok()) << PresetName(preset);
      ASSERT_TRUE(batch->is_sparse());
      const SparseScores& sparse = batch->sparse_scores();
      ASSERT_EQ(sparse.nnz(), src.rows() * tgt.rows());
      const Matrix expanded = sparse.ToDense(0.0f);
      EXPECT_EQ(std::memcmp(expanded.data(), dense_scores->data(),
                            dense_scores->ByteSize()),
                0)
          << PresetName(preset) << " at " << threads << " threads";

      for (MatcherKind matcher : SparseCapableMatchers()) {
        MatchOptions dense_match = dense_options;
        dense_match.matcher = matcher;
        Result<Assignment> expected = MatchScores(*dense_scores, dense_match);
        ASSERT_TRUE(expected.ok());
        MatchOptions sparse_match = sparse_options;
        sparse_match.matcher = matcher;
        Result<Assignment> actual = batch->Match(sparse_match);
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(actual->target_of_source, expected->target_of_source)
            << PresetName(preset);
      }
    }
  }
}

}  // namespace
}  // namespace entmatcher
