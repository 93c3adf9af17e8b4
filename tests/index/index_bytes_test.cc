// Pins the serialized bytes of an HNSW and an IVF index over one seeded
// clustered target. A digest that moves means a change reached the graph or
// the quantizer: HNSW navigates with LaneDot, IVF probes and k-means with
// Dot, and neither may depend on the kernel tier or the thread count.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/candidate_index.h"
#include "la/kernels/dispatch.h"
#include "la/sparse.h"

namespace entmatcher {
namespace {

// FNV-1a over the whole file, 64-bit.
uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    hash ^= static_cast<unsigned char>(*it);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// 1,000 rows of 64 in 32 clusters: each row is a gaussian center plus noise
// at a quarter of the centers' scale.
Matrix ClusteredTarget() {
  constexpr size_t kRows = 1000;
  constexpr size_t kDim = 64;
  constexpr size_t kClusters = 32;
  Rng rng(41);
  Matrix centers(kClusters, kDim);
  for (size_t c = 0; c < kClusters; ++c) {
    for (float& v : centers.Row(c)) v = static_cast<float>(rng.NextGaussian());
  }
  Matrix target(kRows, kDim);
  for (size_t r = 0; r < kRows; ++r) {
    const auto center = centers.Row(rng.NextBounded(kClusters));
    auto row = target.Row(r);
    for (size_t k = 0; k < kDim; ++k) {
      row[k] = center[k] + 0.25f * static_cast<float>(rng.NextGaussian());
    }
  }
  return target;
}

// Source row i is a noisy copy of target row i.
Matrix NoisySource(const Matrix& target) {
  Rng rng(43);
  Matrix source(target.rows(), target.cols());
  for (size_t r = 0; r < target.rows(); ++r) {
    for (size_t k = 0; k < target.cols(); ++k) {
      source.At(r, k) =
          target.At(r, k) + 0.1f * static_cast<float>(rng.NextGaussian());
    }
  }
  return source;
}

bool SameEntries(const SparseScores& a, const SparseScores& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.nnz() == b.nnz() &&
         a.row_offsets() == b.row_offsets() &&
         std::memcmp(a.values(), b.values(), a.nnz() * sizeof(float)) == 0 &&
         std::memcmp(a.col_indices(), b.col_indices(),
                     a.nnz() * sizeof(uint32_t)) == 0;
}

class IndexBytesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = GetNumThreads();
    previous_tier_ = ActiveKernelTier();
  }
  void TearDown() override {
    SetNumThreads(previous_threads_);
    ASSERT_TRUE(SetKernelTier(previous_tier_).ok());
  }

  // At every available tier and at 1 and 4 threads: builds the index, checks
  // its file's digest against `digest`, and checks that the sparse fill of
  // a noisy source is the same at both thread counts.
  static void ExpectPinned(const CandidateIndexOptions& options,
                           uint64_t digest) {
    const Matrix target = ClusteredTarget();
    const Matrix source = NoisySource(target);
    const std::string path = ::testing::TempDir() + "/index_bytes_" +
                             std::to_string(static_cast<int>(options.backend)) +
                             ".eidx";
    for (KernelTier tier :
         {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
      if (!KernelTierAvailable(tier)) continue;
      ASSERT_TRUE(SetKernelTier(tier).ok());
      std::vector<SparseScores> fills;
      for (size_t threads : {size_t(1), size_t(4)}) {
        SCOPED_TRACE(std::string(KernelTierName(tier)) + " threads " +
                     std::to_string(threads));
        SetNumThreads(threads);
        Result<CandidateIndex> index = CandidateIndex::Build(target, options);
        ASSERT_TRUE(index.ok()) << index.status().ToString();
        ASSERT_TRUE(index->Save(path).ok());
        EXPECT_EQ(FileDigest(path), digest)
            << "0x" << std::hex << FileDigest(path);
        Result<SparseScores> fill =
            index->SparseSimilarity(source, target, SimilarityMetric::kCosine,
                                    /*num_candidates=*/10, /*nprobe=*/4);
        ASSERT_TRUE(fill.ok()) << fill.status().ToString();
        fills.push_back(std::move(fill).value());
      }
      EXPECT_TRUE(SameEntries(fills[0], fills[1]))
          << KernelTierName(tier) << ": fill differs between 1 and 4 threads";
    }
    std::remove(path.c_str());
  }

 private:
  size_t previous_threads_;
  KernelTier previous_tier_;
};

TEST_F(IndexBytesTest, HnswGraphBytesArePinned) {
  CandidateIndexOptions options;
  options.backend = CandidateBackendKind::kHnsw;
  options.hnsw_max_links = 16;
  options.hnsw_ef_construction = 64;
  ExpectPinned(options, 0xba955f30b1f203b2ull);
}

TEST_F(IndexBytesTest, IvfQuantizerBytesArePinned) {
  ExpectPinned(CandidateIndexOptions(), 0x547932754f17502full);
}

}  // namespace
}  // namespace entmatcher
