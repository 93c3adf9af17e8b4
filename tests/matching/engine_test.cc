#include "matching/engine.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "matching/pipeline.h"

namespace entmatcher {
namespace {

// The engine-reuse contract (DESIGN.md "Engine and workspace model"): every
// query through a warm MatchEngine is BIT-identical to the one-shot
// ComputeScores/MatchEmbeddings path, at any thread count, no matter how many
// queries the session has already served.

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

std::vector<AlgorithmPreset> EnginePresets() {
  return {AlgorithmPreset::kDInf,     AlgorithmPreset::kCsls,
          AlgorithmPreset::kRinf,     AlgorithmPreset::kRinfWr,
          AlgorithmPreset::kRinfPb,   AlgorithmPreset::kSinkhorn,
          AlgorithmPreset::kHungarian, AlgorithmPreset::kStableMatch};
}

class MatchEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

 private:
  size_t previous_threads_;
};

TEST_F(MatchEngineTest, EveryPresetTwiceBitIdenticalToOneShot) {
  const Matrix src = RandomMatrix(57, 16, 11);
  const Matrix tgt = RandomMatrix(43, 16, 12);
  for (size_t threads : {1u, 7u}) {
    SetNumThreads(threads);
    Result<MatchEngine> engine =
        MatchEngine::Create(src, tgt, MatchOptions());
    ASSERT_TRUE(engine.ok());
    for (AlgorithmPreset preset : EnginePresets()) {
      const MatchOptions options = MakePreset(preset);
      Result<Matrix> reference = ComputeScores(src, tgt, options);
      ASSERT_TRUE(reference.ok()) << PresetName(preset);
      Result<Assignment> one_shot = MatchEmbeddings(src, tgt, options);
      ASSERT_TRUE(one_shot.ok()) << PresetName(preset);
      // Twice through one engine: the second pass runs entirely on recycled
      // arena buffers and must not perturb a single bit.
      for (int repeat = 0; repeat < 2; ++repeat) {
        Result<Matrix> scores = engine->TransformedScores(options);
        ASSERT_TRUE(scores.ok()) << PresetName(preset);
        EXPECT_TRUE(BitIdentical(*reference, *scores))
            << PresetName(preset) << " scores differ at " << threads
            << " threads, repeat " << repeat;
        Result<Assignment> assignment = engine->Match(options);
        ASSERT_TRUE(assignment.ok()) << PresetName(preset);
        EXPECT_EQ(assignment->target_of_source, one_shot->target_of_source)
            << PresetName(preset) << " assignment differs at " << threads
            << " threads, repeat " << repeat;
      }
    }
  }
}

TEST_F(MatchEngineTest, WarmQueriesDoNotGrowArena) {
  const Matrix src = RandomMatrix(40, 8, 21);
  const Matrix tgt = RandomMatrix(30, 8, 22);
  for (AlgorithmPreset preset : EnginePresets()) {
    Result<MatchEngine> engine =
        MatchEngine::Create(src, tgt, MakePreset(preset));
    ASSERT_TRUE(engine.ok()) << PresetName(preset);
    ASSERT_TRUE(engine->Match().ok());  // cold query sizes the pool
    const size_t capacity = engine->workspace().capacity_bytes();
    const size_t high_water = engine->workspace().high_water_bytes();
    EXPECT_GT(capacity, 0u) << PresetName(preset);
    for (int warm = 0; warm < 3; ++warm) {
      ASSERT_TRUE(engine->Match().ok()) << PresetName(preset);
      EXPECT_EQ(engine->workspace().capacity_bytes(), capacity)
          << PresetName(preset) << ": arena grew on warm query " << warm;
      EXPECT_EQ(engine->workspace().high_water_bytes(), high_water)
          << PresetName(preset) << ": per-query peak drifted on warm query "
          << warm;
      EXPECT_EQ(engine->workspace().in_use_bytes(), 0u) << PresetName(preset);
    }
  }
}

TEST_F(MatchEngineTest, BudgetRejectsInfeasibleQueryCleanly) {
  const Matrix src = RandomMatrix(20, 8, 31);
  const Matrix tgt = RandomMatrix(16, 8, 32);
  const size_t cells = src.rows() * tgt.rows();
  // Room for the score matrix plus one more matrix of scratch: DInf (scores
  // only) and RInf (scores + one rank table) fit; SMat's preference tables
  // need 3 more and must be rejected — Table 6's "Mem: No" as a real error.
  MatchOptions base = MakePreset(AlgorithmPreset::kDInf);
  base.workspace_budget_bytes = 2 * cells * sizeof(float);
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, base);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->Match().ok());
  EXPECT_TRUE(engine->Match(MakePreset(AlgorithmPreset::kRinf)).ok());

  const MatchOptions smat = MakePreset(AlgorithmPreset::kStableMatch);
  EXPECT_GT(engine->DeclaredWorkspaceBytes(smat), base.workspace_budget_bytes);
  Result<Assignment> rejected = engine->Match(smat);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The rejection happened before any buffer was touched: nothing leaked and
  // the session still serves feasible queries.
  EXPECT_EQ(engine->workspace().in_use_bytes(), 0u);
  EXPECT_TRUE(engine->Match().ok());
}

TEST_F(MatchEngineTest, CreateValidatesShapes) {
  EXPECT_FALSE(MatchEngine::Create(Matrix(), Matrix(3, 4), MatchOptions()).ok());
  EXPECT_FALSE(
      MatchEngine::Create(Matrix(2, 3), Matrix(2, 4), MatchOptions()).ok());
  MatchOptions rl;
  rl.matcher = MatcherKind::kRl;
  Result<MatchEngine> engine =
      MatchEngine::Create(RandomMatrix(4, 3, 1), RandomMatrix(4, 3, 2),
                          MatchOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Match(rl).ok());  // RL needs KG context
}

TEST_F(MatchEngineTest, StageDeadlineAbortsBetweenStagesAndClears) {
  const Matrix src = RandomMatrix(20, 8, 51);
  const Matrix tgt = RandomMatrix(16, 8, 52);
  Result<MatchEngine> engine =
      MatchEngine::Create(src, tgt, MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(engine.ok());

  // A deadline already in the past fails the query at the next stage
  // boundary — the engine never interrupts mid-kernel, it checks *between*
  // similarity, transform, and decision.
  engine->SetStageDeadline(std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1));
  Result<Assignment> expired = engine->Match();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The abort left no workspace leases behind.
  EXPECT_EQ(engine->workspace().in_use_bytes(), 0u);

  // A generous deadline does not perturb the answer, and clearing restores
  // un-deadlined behavior.
  engine->SetStageDeadline(std::chrono::steady_clock::now() +
                           std::chrono::hours(1));
  Result<Assignment> within = engine->Match();
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  engine->ClearStageDeadline();
  Result<Assignment> cleared = engine->Match();
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(within->target_of_source, cleared->target_of_source);
}

TEST_F(MatchEngineTest, MatchEmbeddingsHonorsBudget) {
  const Matrix src = RandomMatrix(20, 8, 41);
  const Matrix tgt = RandomMatrix(16, 8, 42);
  MatchOptions options = MakePreset(AlgorithmPreset::kStableMatch);
  options.workspace_budget_bytes = 2 * src.rows() * tgt.rows() * sizeof(float);
  Result<Assignment> rejected = MatchEmbeddings(src, tgt, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  options.workspace_budget_bytes = 0;
  EXPECT_TRUE(MatchEmbeddings(src, tgt, options).ok());
}

}  // namespace
}  // namespace entmatcher
