#include "la/kernels/dispatch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/kernels/vector_kernels.h"
#include "la/matrix.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/pipeline.h"

namespace entmatcher {
namespace {

// The kernel-tier contract (DESIGN.md "Kernel tiers"):
//  - the scalar tier is the bit-exactness oracle (the pre-SIMD loops kept
//    verbatim);
//  - elementwise ops, argmax/max, the mask filters, RowTopKIndices, and
//    ColTopKMean are bit-identical to scalar at EVERY tier;
//  - every tier's matmul_tile cells are byte-equal to Dot, so every tier's
//    MatMulTransposedRange output is byte-equal to the scalar tier's, and
//    the sparse rerank (DotRows) is byte-equal to dense cells at any tier;
//  - reassociating reductions (squared_norm, sum, manhattan, RowTopKMean)
//    agree within 1e-5 per value.
//
// Adversarial lengths straddle every vector width in play: 4 (the W4
// table), 8 (AVX2), 16 (AVX-512), 64 (mask chunks), each +/- the remainders
// 1..width-1.
const size_t kLengths[] = {1,  2,  3,  5,  7,  8,  9,  15, 16, 17,
                           23, 31, 32, 33, 48, 63, 64, 65, 67, 130};

std::vector<KernelTier> AvailableVectorTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier tier : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// The vector template at 4 lanes, compiled with this file's default flags
// (the scalar tier's ISA) and never registered as a tier, so every build
// checks the template at a width no registered tier uses.
constexpr KernelOps kW4Ops = VectorKernelOps<4>(KernelTier::kScalar, "w4");

// The tables the op-level tests check: every available vector tier, plus W4.
std::vector<const KernelOps*> VectorTables() {
  std::vector<const KernelOps*> tables;
  if (KernelTierAvailable(KernelTier::kAvx2)) {
    tables.push_back(GetAvx2Kernels());
  }
  if (KernelTierAvailable(KernelTier::kAvx512)) {
    tables.push_back(GetAvx512Kernels());
  }
  tables.push_back(&kW4Ops);
  return tables;
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

// Well-separated pair: target rows are cluster centers, source rows are the
// same centers lightly perturbed — assignments are insensitive to <=1e-5
// score wiggle, so every tier must produce identical decisions.
void ClusteredPair(size_t n, size_t d, uint64_t seed, Matrix* src,
                   Matrix* tgt) {
  *tgt = RandomMatrix(n, d, seed);
  *src = Matrix(n, d);
  Rng rng(seed + 1);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) {
      src->At(r, c) =
          tgt->At(r, c) + 0.01f * static_cast<float>(rng.NextGaussian());
    }
  }
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

// Restores the entry tier and thread count around every test, so a failing
// assertion cannot leak a forced tier into the rest of the binary.
class KernelsTest : public ::testing::Test {
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

TEST_F(KernelsTest, DispatchSurface) {
  EXPECT_TRUE(KernelTierAvailable(KernelTier::kScalar));
  EXPECT_EQ(ActiveKernels().tier, ActiveKernelTier());
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  ASSERT_TRUE(ParseKernelTier("avx512").ok());
  EXPECT_EQ(*ParseKernelTier("avx512"), KernelTier::kAvx512);
  EXPECT_FALSE(ParseKernelTier("auto").ok());  // resolved by callers
  EXPECT_FALSE(ParseKernelTier("sse9").ok());
  // The best tier is always available (it is how auto resolves).
  EXPECT_TRUE(KernelTierAvailable(BestAvailableKernelTier()));
  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
  EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  const JsonValue status = KernelStatusJson();
  EXPECT_EQ(status.GetString("tier").value(), "scalar") << status.Dump();
  EXPECT_NE(status.Find("available"), nullptr) << status.Dump();
  EXPECT_NE(status.Find("cpu"), nullptr) << status.Dump();
}

TEST_F(KernelsTest, ElementwiseOpsBitIdenticalToScalar) {
  const KernelOps& scalar = *GetScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    const KernelOps& ops = *table;
    for (size_t d : kLengths) {
      SCOPED_TRACE(std::string(ops.name) + " d=" + std::to_string(d));
      const std::vector<float> a = RandomVec(d, 100 + d);
      const std::vector<float> b = RandomVec(d, 200 + d);

      std::vector<float> va = a, vb = a;
      scalar.scale(va.data(), d, 1.7f);
      ops.scale(vb.data(), d, 1.7f);
      EXPECT_EQ(0, std::memcmp(va.data(), vb.data(), d * sizeof(float)));

      std::vector<float> ca(d), cb(d);
      scalar.scale_copy(a.data(), ca.data(), d, -0.3f);
      ops.scale_copy(a.data(), cb.data(), d, -0.3f);
      EXPECT_EQ(0, std::memcmp(ca.data(), cb.data(), d * sizeof(float)));

      va = a;
      vb = a;
      scalar.cosine_scale_row(va.data(), b.data(), d, 0.77f);
      ops.cosine_scale_row(vb.data(), b.data(), d, 0.77f);
      EXPECT_EQ(0, std::memcmp(va.data(), vb.data(), d * sizeof(float)));

      va = a;
      vb = a;
      scalar.accumulate_max(va.data(), b.data(), d);
      ops.accumulate_max(vb.data(), b.data(), d);
      EXPECT_EQ(0, std::memcmp(va.data(), vb.data(), d * sizeof(float)));

      std::vector<double> da(d, 0.25), db(d, 0.25);
      scalar.accumulate_cols(da.data(), a.data(), d);
      ops.accumulate_cols(db.data(), a.data(), d);
      EXPECT_EQ(0, std::memcmp(da.data(), db.data(), d * sizeof(double)));

      const std::vector<double> inv(da.begin(), da.end());
      scalar.mul_cols(ca.data(), a.data(), inv.data(), d);
      ops.mul_cols(cb.data(), a.data(), inv.data(), d);
      EXPECT_EQ(0, std::memcmp(ca.data(), cb.data(), d * sizeof(float)));

      EXPECT_EQ(scalar.max(a.data(), d), ops.max(a.data(), d));
      EXPECT_EQ(scalar.argmax(a.data(), d), ops.argmax(a.data(), d));
      // Rounded values tie across lanes; argmax keeps the lowest index.
      std::vector<float> ties(d);
      for (size_t k = 0; k < d; ++k) ties[k] = std::round(a[k]);
      EXPECT_EQ(scalar.argmax(ties.data(), d), ops.argmax(ties.data(), d));
      if (d <= 64) {
        EXPECT_EQ(scalar.mask_gt(a.data(), b.data(), d),
                  ops.mask_gt(a.data(), b.data(), d));
        EXPECT_EQ(scalar.mask_gt_scalar(a.data(), 0.1f, d),
                  ops.mask_gt_scalar(a.data(), 0.1f, d));
      }
    }
  }
}

TEST_F(KernelsTest, NanRejectionMatchesScalarStrictCompares) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const KernelOps& scalar = *GetScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    const KernelOps& ops = *table;
    for (size_t d : {size_t(3), size_t(17), size_t(64), size_t(65)}) {
      for (size_t where : {size_t(0), d / 2, d - 1}) {
        SCOPED_TRACE(std::string(ops.name) + " d=" + std::to_string(d) +
                     " nan@" + std::to_string(where));
        std::vector<float> v = RandomVec(d, 300 + d);
        v[where] = nan;
        // Scalar strict `>` never selects a NaN (and an all-NaN prefix keeps
        // the first element, NaN or not); every tier must agree bitwise.
        const float smax = scalar.max(v.data(), d);
        const float vmax = ops.max(v.data(), d);
        EXPECT_TRUE((std::isnan(smax) && std::isnan(vmax)) || smax == vmax);
        EXPECT_EQ(scalar.argmax(v.data(), d), ops.argmax(v.data(), d));

        std::vector<float> acc_s = RandomVec(d, 400 + d), acc_v = acc_s;
        scalar.accumulate_max(acc_s.data(), v.data(), d);
        ops.accumulate_max(acc_v.data(), v.data(), d);
        EXPECT_EQ(0,
                  std::memcmp(acc_s.data(), acc_v.data(), d * sizeof(float)));
        if (d <= 64) {
          std::vector<float> thr = RandomVec(d, 500 + d);
          EXPECT_EQ(scalar.mask_gt(v.data(), thr.data(), d),
                    ops.mask_gt(v.data(), thr.data(), d));
          EXPECT_EQ(scalar.mask_gt_scalar(v.data(), 0.0f, d),
                    ops.mask_gt_scalar(v.data(), 0.0f, d));
        }
      }
    }
  }
}

TEST_F(KernelsTest, ReductionsWithinToleranceOfScalar) {
  const KernelOps& scalar = *GetScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    const KernelOps& ops = *table;
    for (size_t d : kLengths) {
      SCOPED_TRACE(std::string(ops.name) + " d=" + std::to_string(d));
      const std::vector<float> a = RandomVec(d, 600 + d);
      const std::vector<float> b = RandomVec(d, 700 + d);
      // Reassociated accumulation: tolerance is relative to the magnitude
      // (an absolute 1e-5 is unreachable for sums of ~d unit-scale terms).
      const auto near = [](float want, float got) {
        EXPECT_NEAR(want, got, 1e-5 * std::max(1.0, std::abs(double{want})));
      };
      near(scalar.squared_norm(a.data(), d), ops.squared_norm(a.data(), d));
      near(scalar.sum(a.data(), d), ops.sum(a.data(), d));
      near(scalar.manhattan(a.data(), b.data(), d),
           ops.manhattan(a.data(), b.data(), d));
    }
  }
}

TEST_F(KernelsTest, MatmulTileCellsReplayDotExactlyPerTier) {
  // 7 rows: one group of 4 and a tail of 3. 70 columns: one 64-column block
  // and a block of 6, which is not a whole strip of 2W at any W.
  const size_t rows = 7;
  const size_t cols = 70;
  std::vector<uint32_t> reversed(cols);
  for (size_t j = 0; j < cols; ++j) reversed[j] = cols - 1 - j;
  for (size_t d : {size_t(1), size_t(3), size_t(15), size_t(16), size_t(17),
                   size_t(31), size_t(33), size_t(64), size_t(65),
                   size_t(300)}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Matrix a = RandomMatrix(rows, d, 800 + d);
    const Matrix b = RandomMatrix(cols, d, 900 + d);
    Matrix want(rows, cols);
    GetScalarKernels()->matmul_tile(a.data(), d, rows, b.data(), d, cols, d,
                                    want.data(), cols);
    std::vector<float> dot_rows(cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        EXPECT_EQ(want.At(i, j), Dot(a.Row(i).data(), b.Row(j).data(), d))
            << i << "," << j;
      }
      // Eight sums at a time, 70 = 8 * 8 + 6, in any row order.
      DotRows(a.Row(i).data(), b.data(), d, reversed.data(), cols, d,
              dot_rows.data());
      for (size_t e = 0; e < cols; ++e) {
        EXPECT_EQ(want.At(i, reversed[e]), dot_rows[e]) << i << "," << e;
      }
    }
    for (const KernelOps* table : VectorTables()) {
      SCOPED_TRACE(table->name);
      Matrix c(rows, cols);
      table->matmul_tile(a.data(), d, rows, b.data(), d, cols, d, c.data(),
                         cols);
      EXPECT_TRUE(BitIdentical(want, c));
    }
  }

  // Through MatMulTransposedRange at every registered tier and at two thread
  // counts, whole and from row 5 on.
  const Matrix a = RandomMatrix(45, 67, 81);
  const Matrix b = RandomMatrix(131, 67, 82);
  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
  Result<Matrix> want = MatMulTransposed(a, b);
  ASSERT_TRUE(want.ok());
  for (KernelTier tier : AvailableVectorTiers()) {
    ASSERT_TRUE(SetKernelTier(tier).ok());
    for (size_t threads : {size_t(1), size_t(3)}) {
      SetNumThreads(threads);
      SCOPED_TRACE(std::string(KernelTierName(tier)) + " threads " +
                   std::to_string(threads));
      Result<Matrix> got = MatMulTransposed(a, b);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(BitIdentical(*want, *got));
      Matrix ranged(38, b.rows());
      ASSERT_TRUE(MatMulTransposedRange(a, b, 5, 43, &ranged).ok());
      EXPECT_EQ(0, std::memcmp(ranged.data(), want->Row(5).data(),
                               ranged.ByteSize()));
    }
  }
}

TEST_F(KernelsTest, TopKOpsAgreeWithScalarTier) {
  // Duplicate values in the data exercise the tie rules (lowest index wins).
  Matrix scores = RandomMatrix(19, 67, 41);
  for (size_t r = 0; r < scores.rows(); r += 3) {
    for (size_t c = 1; c < scores.cols(); c += 5) {
      scores.At(r, c) = scores.At(r, c - 1);
    }
  }
  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
  std::vector<std::vector<uint32_t>> want_idx;
  std::vector<std::vector<float>> want_colmean, want_rowmean;
  std::vector<uint32_t> want_argmax = RowArgmax(scores);
  std::vector<float> want_rowmax = RowMax(scores);
  std::vector<float> want_colmax = ColMax(scores);
  for (size_t k : {size_t(1), size_t(2), size_t(7), size_t(64), size_t(67),
                   size_t(100)}) {
    want_idx.push_back(RowTopKIndices(scores, k));
    want_colmean.push_back(ColTopKMean(scores, k));
    want_rowmean.push_back(RowTopKMean(scores, k));
  }
  for (KernelTier tier : AvailableVectorTiers()) {
    ASSERT_TRUE(SetKernelTier(tier).ok());
    SCOPED_TRACE(KernelTierName(tier));
    EXPECT_EQ(RowArgmax(scores), want_argmax);
    EXPECT_EQ(RowMax(scores), want_rowmax);
    EXPECT_EQ(ColMax(scores), want_colmax);
    size_t ki = 0;
    for (size_t k : {size_t(1), size_t(2), size_t(7), size_t(64), size_t(67),
                     size_t(100)}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      // Selection order is preserved exactly: indices and the column means
      // are bit-identical, only the row-mean summation order may differ.
      EXPECT_EQ(RowTopKIndices(scores, k), want_idx[ki]);
      EXPECT_EQ(ColTopKMean(scores, k), want_colmean[ki]);
      const std::vector<float> got = RowTopKMean(scores, k);
      ASSERT_EQ(got.size(), want_rowmean[ki].size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want_rowmean[ki][i], 1e-5) << "row " << i;
      }
      ++ki;
    }
  }
}

TEST_F(KernelsTest, SimilarityWithinTolerancePairExactPerTier) {
  const Matrix src = RandomMatrix(13, 33, 51);
  const Matrix tgt = RandomMatrix(17, 33, 52);
  for (SimilarityMetric metric :
       {SimilarityMetric::kCosine, SimilarityMetric::kNegEuclidean,
        SimilarityMetric::kNegManhattan}) {
    ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
    Result<Matrix> want = ComputeSimilarity(src, tgt, metric);
    ASSERT_TRUE(want.ok());
    for (KernelTier tier : AvailableVectorTiers()) {
      ASSERT_TRUE(SetKernelTier(tier).ok());
      SCOPED_TRACE(std::string(KernelTierName(tier)) + " " +
                   SimilarityMetricName(metric));
      Result<Matrix> got = ComputeSimilarity(src, tgt, metric);
      ASSERT_TRUE(got.ok());
      const SimilarityCache cache = BuildSimilarityCache(src, tgt, metric);
      for (size_t i = 0; i < want->rows(); ++i) {
        for (size_t j = 0; j < want->cols(); ++j) {
          // Relative bound: manhattan cells sum d ~unit-scale terms, so an
          // absolute 1e-5 is below the reassociation noise floor.
          EXPECT_NEAR(want->At(i, j), got->At(i, j),
                      1e-5 * std::max(1.0, std::abs(double{want->At(i, j)})))
              << i << "," << j;
        }
      }
      // The sparse-rerank identity: PairSimilarities must reproduce THIS
      // tier's dense cells bit-for-bit (cosine/euclidean ride on Dot, which
      // every matmul_tile cell equals; manhattan is the same kernel both
      // ways). All 17 columns, last first: DotRows' two groups of eight
      // and a short one.
      std::vector<uint32_t> cols(tgt.rows());
      for (size_t e = 0; e < cols.size(); ++e) {
        cols[e] = static_cast<uint32_t>(cols.size() - 1 - e);
      }
      std::vector<float> pair(cols.size());
      for (size_t i = 0; i < src.rows(); i += 5) {
        PairSimilarities(src, tgt, i, cols, metric, cache, pair.data());
        for (size_t e = 0; e < cols.size(); ++e) {
          EXPECT_EQ(got->At(i, cols[e]), pair[e]) << i << "," << cols[e];
        }
      }
    }
  }
}

// The cosine hoist satellite: the scalar tier must still be bit-identical to
// the pre-dispatch algorithm (dot products scaled by si * inv_tgt[j] row by
// row), re-derived here from first principles.
TEST_F(KernelsTest, ScalarCosineBitIdenticalToLegacyFormulation) {
  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
  const Matrix src = RandomMatrix(9, 19, 61);
  const Matrix tgt = RandomMatrix(11, 19, 62);
  Result<Matrix> got =
      ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
  ASSERT_TRUE(got.ok());
  const SimilarityCache cache =
      BuildSimilarityCache(src, tgt, SimilarityMetric::kCosine);
  Result<Matrix> reference = MatMulTransposed(src, tgt);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < reference->rows(); ++i) {
    const float si = cache.inv_source_norms[i];
    float* row = reference->Row(i).data();
    for (size_t j = 0; j < reference->cols(); ++j) {
      row[j] *= si * cache.inv_target_norms[j];
    }
  }
  EXPECT_TRUE(BitIdentical(*reference, *got));
}

TEST_F(KernelsTest, PresetAssignmentsIdenticalAcrossTiersAndThreads) {
  Matrix src, tgt;
  ClusteredPair(48, 24, 71, &src, &tgt);
  std::vector<MatchOptions> presets;
  for (AlgorithmPreset p :
       {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls, AlgorithmPreset::kRinf,
        AlgorithmPreset::kRinfWr, AlgorithmPreset::kRinfPb,
        AlgorithmPreset::kSinkhorn, AlgorithmPreset::kHungarian,
        AlgorithmPreset::kStableMatch}) {
    presets.push_back(MakePreset(p));
  }
  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
  std::vector<Assignment> want;
  std::vector<Matrix> want_scores;
  for (const MatchOptions& options : presets) {
    Result<Matrix> scores = ComputeScores(src, tgt, options);
    ASSERT_TRUE(scores.ok());
    want_scores.push_back(std::move(scores).value());
    Result<Assignment> assignment = MatchEmbeddings(src, tgt, options);
    ASSERT_TRUE(assignment.ok());
    want.push_back(std::move(assignment).value());
  }
  for (KernelTier tier : AvailableVectorTiers()) {
    ASSERT_TRUE(SetKernelTier(tier).ok());
    for (size_t threads : {size_t(1), size_t(7)}) {
      SetNumThreads(threads);
      for (size_t p = 0; p < presets.size(); ++p) {
        SCOPED_TRACE(std::string(KernelTierName(tier)) + " preset " +
                     std::to_string(p) + " threads " +
                     std::to_string(threads));
        Result<Matrix> scores = ComputeScores(src, tgt, presets[p]);
        ASSERT_TRUE(scores.ok());
        for (size_t i = 0; i < scores->rows(); ++i) {
          for (size_t j = 0; j < scores->cols(); ++j) {
            ASSERT_NEAR(want_scores[p].At(i, j), scores->At(i, j), 1e-5)
                << i << "," << j;
          }
        }
        Result<Assignment> assignment = MatchEmbeddings(src, tgt, presets[p]);
        ASSERT_TRUE(assignment.ok());
        EXPECT_EQ(assignment->target_of_source, want[p].target_of_source);
      }
    }
  }
}

}  // namespace
}  // namespace entmatcher
