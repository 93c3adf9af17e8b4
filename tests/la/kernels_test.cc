#include "la/kernels/dispatch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/candidate_index.h"
#include "la/kernels/vector_kernels.h"
#include "la/matrix.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/engine.h"
#include "matching/pipeline.h"

namespace entmatcher {
namespace {

// The kernel-tier contract (DESIGN.md "Kernel tiers"): every op of every
// tier returns the scalar tier's bytes, so no result depends on the tier.
//  - elementwise ops, argmax/max, the mask filters, RowTopKIndices,
//    RowTopKMean and ColTopKMean are bit-identical to scalar at EVERY tier;
//  - every tier's matmul_tile cells are byte-equal to Dot, so every tier's
//    MatMulTransposedRange output is byte-equal to the scalar tier's, and
//    the sparse rerank (DotRows) is byte-equal to dense cells at any tier;
//  - the reductions (squared_norm, sum, manhattan) and LaneDot (HNSW
//    navigation, not a tier op) follow one stated lane order at every tier
//    and every lane count.
//
// Adversarial lengths straddle every vector width in play: 4 (the W4
// table), 8 (AVX2), 16 (AVX-512 and the lane order), 64 (mask chunks), each
// +/- the remainders 1..width-1.
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
// same centers lightly perturbed.
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

// Gaussian entries rounded to half steps: scores full of ties.
Matrix HalfStepMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m = RandomMatrix(rows, cols, seed);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = std::round(2.0f * v) / 2.0f;
  }
  return m;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
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

// The lane order of dispatch.h, spelled out independently: sixteen
// accumulators indexed k % 16 over the whole blocks of 16, the upper half
// folded onto the lower four times, then the last d % 16 terms in order.
template <typename T, typename Term>
T LaneOrderReference(size_t d, Term term) {
  const size_t whole = d - d % 16;
  T acc[16] = {};
  for (size_t k = 0; k < whole; ++k) acc[k % 16] += term(k);
  T fold8[8];
  for (size_t l = 0; l < 8; ++l) fold8[l] = acc[l] + acc[l + 8];
  T fold4[4];
  for (size_t l = 0; l < 4; ++l) fold4[l] = fold8[l] + fold8[l + 4];
  const T fold2[2] = {fold4[0] + fold4[2], fold4[1] + fold4[3]};
  T result = fold2[0] + fold2[1];
  for (size_t k = whole; k < d; ++k) result += term(k);
  return result;
}

// Magnitudes spread over 2^-40..2^40, so partial sums round and a sum taken
// in another order shows in the bits, with -0.0 and subnormals mixed in.
std::vector<float> LaneOrderInput(size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(d);
  for (float& x : v) {
    x = std::ldexp(static_cast<float>(rng.NextGaussian()),
                   static_cast<int>(rng.NextBounded(81)) - 40);
    switch (rng.NextBounded(8)) {
      case 0: x = -0.0f; break;
      case 1: x = std::numeric_limits<float>::denorm_min() * 3; break;
      case 2: x = -1e-39f; break;
      default: break;
    }
  }
  return v;
}

// The lengths the lane-order tests run: kLengths, plus lengths with whole
// blocks of 16 and a tail, and with whole blocks only.
std::vector<size_t> LaneOrderLengths() {
  std::vector<size_t> lengths(std::begin(kLengths), std::end(kLengths));
  lengths.insert(lengths.end(), {100, 128, 300});
  return lengths;
}

// squared_norm, sum and manhattan of the scalar table, of every available
// vector tier and of the W = 4 table, against the lane order written out
// above: the one order, so every tier gives the same bytes.
TEST_F(KernelsTest, ReductionsFollowTheLaneOrderAtEveryTier) {
  std::vector<const KernelOps*> tables = VectorTables();
  tables.insert(tables.begin(), GetScalarKernels());
  size_t order_sensitive = 0;
  for (size_t d : LaneOrderLengths()) {
    for (uint64_t trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("d=" + std::to_string(d) + " trial " +
                   std::to_string(trial));
      const std::vector<float> a = LaneOrderInput(d, 1000 * d + trial);
      const std::vector<float> b = LaneOrderInput(d, 5000 * d + trial);
      const float* pa = a.data();
      const float* pb = b.data();
      const double want_sq = LaneOrderReference<double>(
          d, [pa](size_t k) { return static_cast<double>(pa[k]) * pa[k]; });
      const double want_sum = LaneOrderReference<double>(
          d, [pa](size_t k) { return static_cast<double>(pa[k]); });
      const float want_l1 = LaneOrderReference<float>(
          d, [pa, pb](size_t k) { return std::fabs(pa[k] - pb[k]); });
      for (const KernelOps* table : tables) {
        SCOPED_TRACE(table->name);
        EXPECT_TRUE(SameBits(table->squared_norm(pa, d), want_sq));
        EXPECT_TRUE(SameBits(table->sum(pa, d), want_sum));
        EXPECT_TRUE(SameBits(table->manhattan(pa, pb, d), want_l1));
      }
      // Teeth: a serial sum gives other bits somewhere.
      double serial_sum = 0.0;
      for (size_t k = 0; k < d; ++k) serial_sum += a[k];
      order_sensitive += !SameBits(serial_sum, want_sum);
    }
  }
  EXPECT_GT(order_sensitive, 0u);
  // Every term is -0.0: the lanes start at +0.0, and so does the result.
  const float neg_zero[3] = {-0.0f, -0.0f, -0.0f};
  for (const KernelOps* table : tables) {
    EXPECT_FALSE(std::signbit(table->sum(neg_zero, 3))) << table->name;
  }
}

// LaneDot (HNSW navigation, not a tier op) sums its products in the same
// lane order, each product rounded to float before its add.
TEST_F(KernelsTest, LaneDotFollowsItsStatedOrder) {
  size_t order_sensitive = 0;
  for (size_t d : LaneOrderLengths()) {
    for (uint64_t trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("d=" + std::to_string(d) + " trial " +
                   std::to_string(trial));
      const std::vector<float> a = LaneOrderInput(d, 1000 * d + trial);
      const std::vector<float> b = LaneOrderInput(d, 5000 * d + trial);
      const float* pa = a.data();
      const float* pb = b.data();
      const float want = LaneOrderReference<float>(
          d, [pa, pb](size_t k) { return pa[k] * pb[k]; });
      EXPECT_TRUE(SameBits(LaneDot(pa, pb, d), want));
      // Teeth: Dot's serial order gives other bits somewhere.
      order_sensitive += !SameBits(Dot(pa, pb, d), want);
    }
  }
  EXPECT_GT(order_sensitive, 0u);
  // Every product is -0.0: the lanes start at +0.0, and so does the result.
  const float neg_zero[3] = {-0.0f, -0.0f, -0.0f};
  const float ones[3] = {1.0f, 1.0f, 1.0f};
  EXPECT_FALSE(std::signbit(LaneDot(neg_zero, ones, 3)));
}

// Each vector table's reductions against the scalar table's on plain
// Gaussian data. The tolerance is zero: with one lane order at every tier,
// a vector tier's reduction is the scalar tier's bytes.
TEST_F(KernelsTest, ReductionsWithinToleranceOfScalar) {
  const KernelOps& scalar = *GetScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    const KernelOps& ops = *table;
    for (size_t d : kLengths) {
      SCOPED_TRACE(std::string(ops.name) + " d=" + std::to_string(d));
      const std::vector<float> a = RandomVec(d, 600 + d);
      const std::vector<float> b = RandomVec(d, 700 + d);
      EXPECT_TRUE(SameBits(scalar.squared_norm(a.data(), d),
                           ops.squared_norm(a.data(), d)));
      EXPECT_TRUE(SameBits(scalar.sum(a.data(), d), ops.sum(a.data(), d)));
      EXPECT_TRUE(SameBits(scalar.manhattan(a.data(), b.data(), d),
                           ops.manhattan(a.data(), b.data(), d)));
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
  const size_t ks[] = {1, 2, 7, 64, 67, 100};
  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
  std::vector<std::vector<uint32_t>> want_idx;
  std::vector<std::vector<float>> want_colmean, want_rowmean;
  std::vector<double> want_std;
  std::vector<uint32_t> want_argmax = RowArgmax(scores);
  std::vector<float> want_rowmax = RowMax(scores);
  std::vector<float> want_colmax = ColMax(scores);
  for (size_t k : ks) {
    want_idx.push_back(RowTopKIndices(scores, k));
    want_colmean.push_back(ColTopKMean(scores, k));
    want_rowmean.push_back(RowTopKMean(scores, k));
    want_std.push_back(MeanRowTopKStd(scores, k));
  }
  for (KernelTier tier : AvailableVectorTiers()) {
    ASSERT_TRUE(SetKernelTier(tier).ok());
    SCOPED_TRACE(KernelTierName(tier));
    EXPECT_EQ(RowArgmax(scores), want_argmax);
    EXPECT_TRUE(SameBytes(RowMax(scores), want_rowmax));
    EXPECT_TRUE(SameBytes(ColMax(scores), want_colmax));
    for (size_t ki = 0; ki < std::size(ks); ++ki) {
      SCOPED_TRACE("k=" + std::to_string(ks[ki]));
      // One selection at every tier: the same indices, and the same values
      // summed in the same order.
      EXPECT_EQ(RowTopKIndices(scores, ks[ki]), want_idx[ki]);
      EXPECT_TRUE(SameBytes(ColTopKMean(scores, ks[ki]), want_colmean[ki]));
      EXPECT_TRUE(SameBytes(RowTopKMean(scores, ks[ki]), want_rowmean[ki]));
      EXPECT_TRUE(SameBits(MeanRowTopKStd(scores, ks[ki]), want_std[ki]));
    }
  }
}

// Every metric's similarity matrix is byte-identical at every tier, and so
// are the candidate rerank's pair scores.
TEST_F(KernelsTest, SimilarityBitIdenticalAcrossTiers) {
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
      EXPECT_TRUE(BitIdentical(*want, *got));
      // The sparse-rerank identity: PairSimilarities reproduces the dense
      // cells bit for bit (cosine/euclidean ride on Dot, which every
      // matmul_tile cell equals; manhattan is the same kernel both ways).
      // All 17 columns, last first: DotRows' two groups of eight and a
      // short one.
      const SimilarityCache cache = BuildSimilarityCache(src, tgt, metric);
      std::vector<uint32_t> cols(tgt.rows());
      for (size_t e = 0; e < cols.size(); ++e) {
        cols[e] = static_cast<uint32_t>(cols.size() - 1 - e);
      }
      std::vector<float> pair(cols.size());
      for (size_t i = 0; i < src.rows(); i += 5) {
        PairSimilarities(src, tgt, i, cols, metric, cache, pair.data());
        for (size_t e = 0; e < cols.size(); ++e) {
          EXPECT_TRUE(SameBits(got->At(i, cols[e]), pair[e]))
              << i << "," << cols[e];
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

// The bytes of what one match computes: the transformed scores (through
// the pipeline, or the sparse batch's values when `options` names a
// candidate index) and the assignment. Empty on a failure, which it reports.
std::string MatchBytes(const Matrix& src, const Matrix& tgt,
                       const MatchOptions& options) {
  std::string bytes;
  const auto append = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  Result<Assignment> assignment = Status::Internal("not run");
  if (options.candidate_index == nullptr) {
    Result<Matrix> scores = ComputeScores(src, tgt, options);
    EXPECT_TRUE(scores.ok()) << scores.status().ToString();
    if (!scores.ok()) return "";
    append(scores->data(), scores->ByteSize());
    assignment = MatchEmbeddings(src, tgt, options);
  } else {
    Result<MatchEngine> engine = MatchEngine::Create(src, tgt, options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return "";
    Result<MatchEngine::ScoredBatch> batch = engine->BeginBatch(options);
    EXPECT_TRUE(batch.ok() && batch->is_sparse());
    if (!batch.ok()) return "";
    const SparseScores& sparse = batch->sparse_scores();
    append(sparse.values(), sparse.nnz() * sizeof(float));
    assignment = batch->Match(options);
  }
  EXPECT_TRUE(assignment.ok()) << assignment.status().ToString();
  if (!assignment.ok()) return "";
  append(assignment->target_of_source.data(),
         assignment->size() * sizeof(int32_t));
  return bytes;
}

// Every preset's transformed scores and assignment at the cosine metric,
// CSLS and Sinkhorn also at the Euclidean and Manhattan ones, and sparse
// CSLS and RInf-pb over complete candidate lists, on three pairs: the
// clustered one, a Gaussian one and a tie-heavy half-step one, the last two
// with d and m off every multiple of 16. All of it is byte-identical at
// every tier and at 1 and 7 threads.
TEST_F(KernelsTest, PresetAssignmentsIdenticalAcrossTiersAndThreads) {
  struct Pair {
    const char* name;
    Matrix src;
    Matrix tgt;
  };
  std::vector<Pair> pairs(3);
  pairs[0].name = "clustered";
  ClusteredPair(48, 24, 71, &pairs[0].src, &pairs[0].tgt);
  pairs[1] = {"gaussian", RandomMatrix(37, 33, 72), RandomMatrix(45, 33, 73)};
  pairs[2] = {"half-step", HalfStepMatrix(30, 20, 74),
              HalfStepMatrix(35, 20, 75)};

  std::vector<MatchOptions> dense;
  for (AlgorithmPreset p :
       {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls, AlgorithmPreset::kRinf,
        AlgorithmPreset::kRinfWr, AlgorithmPreset::kRinfPb,
        AlgorithmPreset::kSinkhorn, AlgorithmPreset::kHungarian,
        AlgorithmPreset::kStableMatch}) {
    dense.push_back(MakePreset(p));
  }
  for (SimilarityMetric metric :
       {SimilarityMetric::kNegEuclidean, SimilarityMetric::kNegManhattan}) {
    for (AlgorithmPreset p :
         {AlgorithmPreset::kCsls, AlgorithmPreset::kSinkhorn}) {
      dense.push_back(MakePreset(p));
      dense.back().metric = metric;
    }
  }

  std::vector<KernelTier> tiers = AvailableVectorTiers();
  tiers.insert(tiers.begin(), KernelTier::kScalar);
  for (const Pair& pair : pairs) {
    CandidateIndexOptions index_options;
    index_options.backend = CandidateBackendKind::kExact;
    Result<CandidateIndex> index =
        CandidateIndex::Build(pair.tgt, index_options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    std::vector<MatchOptions> options = dense;
    for (AlgorithmPreset p :
         {AlgorithmPreset::kCsls, AlgorithmPreset::kRinfPb}) {
      options.push_back(MakePreset(p));
      options.back().candidate_index = &*index;
      options.back().num_candidates = pair.tgt.rows();
    }

    ASSERT_TRUE(SetKernelTier(KernelTier::kScalar).ok());
    SetNumThreads(1);
    std::vector<std::string> want;
    for (const MatchOptions& o : options) {
      want.push_back(MatchBytes(pair.src, pair.tgt, o));
    }
    for (KernelTier tier : tiers) {
      ASSERT_TRUE(SetKernelTier(tier).ok());
      for (size_t threads : {size_t(1), size_t(7)}) {
        SetNumThreads(threads);
        for (size_t o = 0; o < options.size(); ++o) {
          SCOPED_TRACE(std::string(pair.name) + " " + KernelTierName(tier) +
                       " option " + std::to_string(o) + " threads " +
                       std::to_string(threads));
          EXPECT_FALSE(want[o].empty());
          EXPECT_TRUE(MatchBytes(pair.src, pair.tgt, options[o]) == want[o]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace entmatcher
