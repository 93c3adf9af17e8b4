// HNSW and backend-facade tests: build validation, exact-rerank bit-identity,
// thread-count invariance, seeded determinism (rebuild byte equality), EIDX2
// serialization (EIDX1 refused), and backend-aware signatures.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/candidate_index.h"
#include "la/similarity.h"
#include "la/sparse.h"
#include "matching/engine.h"
#include "matching/types.h"

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

/// A pair where source row i is a noisy copy of target row i, so dense
/// argmax recall against the identity alignment is a meaningful ANN metric.
Matrix NoisyCopy(const Matrix& base, double noise, uint64_t seed) {
  Rng rng(seed);
  Matrix m(base.rows(), base.cols());
  for (size_t r = 0; r < base.rows(); ++r) {
    for (size_t c = 0; c < base.cols(); ++c) {
      m.At(r, c) = base.At(r, c) +
                   static_cast<float>(noise * rng.NextGaussian());
    }
  }
  return m;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
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

CandidateIndexOptions HnswOptions(size_t max_links = 8,
                                  size_t ef_construction = 48,
                                  uint64_t seed = 13) {
  CandidateIndexOptions options;
  options.backend = CandidateBackendKind::kHnsw;
  options.hnsw_max_links = max_links;
  options.hnsw_ef_construction = ef_construction;
  options.seed = seed;
  return options;
}

class HnswIndexTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

 private:
  size_t previous_threads_;
};

TEST_F(HnswIndexTest, BuildValidatesShapeAndKnobs) {
  EXPECT_FALSE(CandidateIndex::Build(Matrix(), HnswOptions()).ok());
  const Matrix tgt = RandomMatrix(20, 8, 3);
  EXPECT_FALSE(CandidateIndex::Build(tgt, HnswOptions(/*max_links=*/1)).ok());
  EXPECT_FALSE(
      CandidateIndex::Build(tgt, HnswOptions(/*max_links=*/300)).ok());
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, HnswOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->backend(), CandidateBackendKind::kHnsw);
  EXPECT_EQ(index->num_targets(), 20u);
  EXPECT_EQ(index->num_lists(), 0u);  // IVF-only accessor
}

// The facade reranks every HNSW proposal with the exact metric kernel, so
// each emitted sparse entry is bitwise the dense score of its cell — the
// same contract the IVF backend ships with.
TEST_F(HnswIndexTest, EntriesAreExactDenseScores) {
  const Matrix src = RandomMatrix(23, 10, 7);
  const Matrix tgt = RandomMatrix(31, 10, 8);
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, HnswOptions());
  ASSERT_TRUE(index.ok());

  for (SimilarityMetric metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kNegEuclidean,
        SimilarityMetric::kNegManhattan}) {
    Result<Matrix> dense = ComputeSimilarity(src, tgt, metric);
    ASSERT_TRUE(dense.ok());
    Result<SparseScores> sparse =
        index->SparseSimilarity(src, tgt, metric, /*num_candidates=*/5,
                                /*nprobe=*/2);
    ASSERT_TRUE(sparse.ok());
    ASSERT_TRUE(sparse->Validate().ok());
    for (size_t i = 0; i < sparse->rows(); ++i) {
      auto values = sparse->RowValues(i);
      auto cols = sparse->RowCols(i);
      EXPECT_LE(values.size(), 5u);
      EXPECT_FALSE(values.empty()) << "row " << i << " starved";
      for (size_t p = 0; p < values.size(); ++p) {
        const float expected = dense->Row(i)[cols[p]];
        EXPECT_EQ(std::memcmp(&values[p], &expected, sizeof(float)), 0)
            << "row " << i << " col " << cols[p];
      }
    }
  }
}

TEST_F(HnswIndexTest, FillIsThreadCountInvariant) {
  const Matrix src = RandomMatrix(33, 8, 11);
  const Matrix tgt = RandomMatrix(29, 8, 12);
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, HnswOptions());
  ASSERT_TRUE(index.ok());

  SetNumThreads(1);
  Result<SparseScores> serial =
      index->SparseSimilarity(src, tgt, SimilarityMetric::kCosine, 6, 2);
  ASSERT_TRUE(serial.ok());
  SetNumThreads(7);
  Result<SparseScores> parallel =
      index->SparseSimilarity(src, tgt, SimilarityMetric::kCosine, 6, 2);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(SameEntries(*serial, *parallel));
}

// Same seed, same data => byte-identical serialized graph; a different seed
// must actually change the level assignment.
TEST_F(HnswIndexTest, BuildIsDeterministicGivenTheSeed) {
  const Matrix tgt = RandomMatrix(60, 8, 21);
  Result<CandidateIndex> a = CandidateIndex::Build(tgt, HnswOptions());
  Result<CandidateIndex> b = CandidateIndex::Build(tgt, HnswOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string path_a = ::testing::TempDir() + "/hnsw_a.eidx";
  const std::string path_b = ::testing::TempDir() + "/hnsw_b.eidx";
  ASSERT_TRUE(a->Save(path_a).ok());
  ASSERT_TRUE(b->Save(path_b).ok());
  EXPECT_EQ(FileBytes(path_a), FileBytes(path_b));

  Result<CandidateIndex> reseeded = CandidateIndex::Build(
      tgt, HnswOptions(/*max_links=*/8, /*ef_construction=*/48, /*seed=*/99));
  ASSERT_TRUE(reseeded.ok());
  ASSERT_TRUE(reseeded->Save(path_b).ok());
  EXPECT_NE(FileBytes(path_a), FileBytes(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// On an identity-aligned noisy pair the graph search must put the dense
// argmax into nearly every candidate list — the recall the bench gates.
TEST_F(HnswIndexTest, RecallOnAlignedPairIsHigh) {
  const Matrix tgt = RandomMatrix(400, 16, 51);
  const Matrix src = NoisyCopy(tgt, /*noise=*/0.05, 52);
  Result<CandidateIndex> index = CandidateIndex::Build(
      tgt, HnswOptions(/*max_links=*/8, /*ef_construction=*/64));
  ASSERT_TRUE(index.ok());
  Result<Matrix> dense =
      ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
  ASSERT_TRUE(dense.ok());
  Result<SparseScores> sparse =
      index->SparseSimilarity(src, tgt, SimilarityMetric::kCosine,
                              /*num_candidates=*/10, /*nprobe=*/1);
  ASSERT_TRUE(sparse.ok());

  size_t hits = 0;
  for (size_t i = 0; i < src.rows(); ++i) {
    size_t argmax = 0;
    for (size_t j = 1; j < tgt.rows(); ++j) {
      if (dense->At(i, j) > dense->At(i, argmax)) argmax = j;
    }
    for (uint32_t col : sparse->RowCols(i)) {
      if (col == argmax) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(src.rows()), 0.95)
      << hits << "/" << src.rows();
}

TEST_F(HnswIndexTest, SaveLoadRoundTripEidx2) {
  const Matrix src = RandomMatrix(17, 8, 61);
  const Matrix tgt = RandomMatrix(45, 8, 62);
  for (CandidateBackendKind kind :
       {CandidateBackendKind::kExact, CandidateBackendKind::kIvf,
        CandidateBackendKind::kHnsw}) {
    CandidateIndexOptions options = HnswOptions();
    options.backend = kind;
    Result<CandidateIndex> built = CandidateIndex::Build(tgt, options);
    ASSERT_TRUE(built.ok()) << CandidateBackendName(kind);
    const std::string path = ::testing::TempDir() + "/round_trip2.eidx";
    ASSERT_TRUE(built->Save(path).ok());
    Result<CandidateIndex> loaded = CandidateIndex::Load(path);
    ASSERT_TRUE(loaded.ok())
        << CandidateBackendName(kind) << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->backend(), kind);
    EXPECT_EQ(loaded->num_targets(), built->num_targets());
    EXPECT_EQ(loaded->dim(), built->dim());
    Result<SparseScores> before =
        built->SparseSimilarity(src, tgt, SimilarityMetric::kCosine, 5, 2);
    Result<SparseScores> after =
        loaded->SparseSimilarity(src, tgt, SimilarityMetric::kCosine, 5, 2);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(SameEntries(*before, *after)) << CandidateBackendName(kind);
    std::remove(path.c_str());
  }
}

// EIDX1 files (version 1: no backend tag, an IVF body) are no longer read.
TEST_F(HnswIndexTest, LegacyEidx1IsRefused) {
  CandidateIndexOptions options;
  options.num_lists = 4;
  Result<CandidateIndex> built =
      CandidateIndex::Build(RandomMatrix(30, 8, 72), options);
  ASSERT_TRUE(built.ok());
  const std::string path = ::testing::TempDir() + "/legacy.eidx";
  ASSERT_TRUE(built->Save(path).ok());
  // Rewrite the EIDX2 file into the EIDX1 layout: version 1, tag dropped.
  const std::string eidx2 = FileBytes(path);
  const uint64_t version = 1;
  std::string eidx1 = eidx2.substr(0, 4);
  eidx1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  eidx1.append(eidx2.substr(13));
  {
    std::ofstream out(path, std::ios::binary);
    out.write(eidx1.data(), static_cast<std::streamsize>(eidx1.size()));
  }
  Result<CandidateIndex> loaded = CandidateIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST_F(HnswIndexTest, LoadRejectsCorruptEidx2) {
  const Matrix tgt = RandomMatrix(40, 8, 81);
  Result<CandidateIndex> built = CandidateIndex::Build(tgt, HnswOptions());
  ASSERT_TRUE(built.ok());
  const std::string full = ::testing::TempDir() + "/hnsw_full.eidx";
  ASSERT_TRUE(built->Save(full).ok());
  std::string bytes = FileBytes(full);
  ASSERT_GT(bytes.size(), 16u);

  // Unknown backend tag (byte 12: after magic + uint64 version).
  const std::string bad_tag = ::testing::TempDir() + "/hnsw_bad_tag.eidx";
  {
    std::string mutated = bytes;
    mutated[12] = static_cast<char>(0x7F);
    std::ofstream out(bad_tag, std::ios::binary);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  EXPECT_FALSE(CandidateIndex::Load(bad_tag).ok());
  std::remove(bad_tag.c_str());

  // Truncations at several depths: header, payload header, mid-graph.
  for (size_t keep : {size_t{8}, size_t{13}, size_t{40}, bytes.size() / 2}) {
    const std::string truncated = ::testing::TempDir() + "/hnsw_trunc.eidx";
    {
      std::ofstream out(truncated, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    EXPECT_FALSE(CandidateIndex::Load(truncated).ok()) << "keep=" << keep;
    std::remove(truncated.c_str());
  }
  std::remove(full.c_str());

  // Headers alone, declaring 2^32 targets: the loaders must refuse them
  // from the file size, before sizing any array from the header.
  const auto header_only = [](uint8_t tag, std::vector<uint64_t> fields) {
    std::string bytes = "EIDX";
    const uint64_t version = 2;
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes.push_back(static_cast<char>(tag));
    bytes.append(reinterpret_cast<const char*>(fields.data()),
                 fields.size() * sizeof(uint64_t));
    return bytes;
  };
  const uint64_t huge = uint64_t{1} << 32;
  // HNSW: num_targets, dim, M = 256, 2M, ef_construction, seed, entry
  // point, max level + 1.
  const std::string hnsw_header = header_only(
      static_cast<uint8_t>(CandidateBackendKind::kHnsw),
      {huge, 8, 256, 512, 64, 13, 0, 1});
  // IVF: num_targets, dim, num_lists.
  const std::string ivf_header = header_only(
      static_cast<uint8_t>(CandidateBackendKind::kIvf), {huge, 8, 1});
  ASSERT_EQ(hnsw_header.size(), 77u);
  ASSERT_EQ(ivf_header.size(), 37u);
  for (const std::string& header : {hnsw_header, ivf_header}) {
    const std::string path = ::testing::TempDir() + "/header_only.eidx";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(header.data(), static_cast<std::streamsize>(header.size()));
    }
    Result<CandidateIndex> loaded = CandidateIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << header.size() << "-byte header";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
        << loaded.status().ToString();
    std::remove(path.c_str());
  }
}

// The exact backend proposes every target, so the sparse result with
// num_candidates = m reproduces the dense similarity bit for bit.
TEST_F(HnswIndexTest, ExactBackendReproducesDenseSimilarity) {
  const Matrix src = RandomMatrix(19, 6, 91);
  const Matrix tgt = RandomMatrix(27, 6, 92);
  CandidateIndexOptions options;
  options.backend = CandidateBackendKind::kExact;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, options);
  ASSERT_TRUE(index.ok());
  Result<Matrix> dense =
      ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
  ASSERT_TRUE(dense.ok());
  Result<SparseScores> sparse = index->SparseSimilarity(
      src, tgt, SimilarityMetric::kCosine, tgt.rows(), 1);
  ASSERT_TRUE(sparse.ok());
  ASSERT_EQ(sparse->nnz(), src.rows() * tgt.rows());
  const Matrix round_trip = sparse->ToDense(0.0f);
  EXPECT_EQ(std::memcmp(round_trip.data(), dense->data(), dense->ByteSize()),
            0);
}

// The score signature must key on the knob the backend actually reads:
// ef for HNSW, nprobe for IVF, neither for exact.
TEST_F(HnswIndexTest, ScoreSignatureKeysOnTheActiveKnob) {
  const Matrix tgt = RandomMatrix(30, 8, 95);
  Result<CandidateIndex> hnsw = CandidateIndex::Build(tgt, HnswOptions());
  ASSERT_TRUE(hnsw.ok());
  CandidateIndexOptions ivf_options;
  Result<CandidateIndex> ivf = CandidateIndex::Build(tgt, ivf_options);
  ASSERT_TRUE(ivf.ok());

  MatchOptions base = MakePreset(AlgorithmPreset::kCsls);
  base.num_candidates = 5;

  MatchOptions hnsw_a = base;
  hnsw_a.candidate_index = &*hnsw;
  MatchOptions hnsw_b = hnsw_a;
  hnsw_b.index_nprobe = 77;  // IVF knob: ignored by the graph backend
  EXPECT_TRUE(ScoreSignature::Of(hnsw_a) == ScoreSignature::Of(hnsw_b));
  MatchOptions hnsw_c = hnsw_a;
  hnsw_c.index_ef = hnsw_a.index_ef + 32;
  EXPECT_FALSE(ScoreSignature::Of(hnsw_a) == ScoreSignature::Of(hnsw_c));

  MatchOptions ivf_a = base;
  ivf_a.candidate_index = &*ivf;
  MatchOptions ivf_b = ivf_a;
  ivf_b.index_ef = 999;  // HNSW knob: ignored by IVF
  EXPECT_TRUE(ScoreSignature::Of(ivf_a) == ScoreSignature::Of(ivf_b));
  MatchOptions ivf_c = ivf_a;
  ivf_c.index_nprobe = ivf_a.index_nprobe + 1;
  EXPECT_FALSE(ScoreSignature::Of(ivf_a) == ScoreSignature::Of(ivf_c));

  // Engine validation mirrors the split: only the active knob must be >= 1.
  const Matrix src = RandomMatrix(10, 8, 96);
  MatchOptions hnsw_no_ef = hnsw_a;
  hnsw_no_ef.index_ef = 0;
  hnsw_no_ef.index_nprobe = 4;
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, hnsw_no_ef);
  ASSERT_TRUE(engine.ok());
  Result<Assignment> rejected = engine->Match(hnsw_no_ef);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  MatchOptions ivf_no_ef = ivf_a;
  ivf_no_ef.index_ef = 0;  // stray zero on the inactive knob is fine
  EXPECT_TRUE(engine->Match(ivf_no_ef).ok());
}

}  // namespace
}  // namespace entmatcher
