#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/candidate_index.h"
#include "matching/engine.h"
#include "matching/pipeline.h"
#include "matching/sparse_matchers.h"
#include "matching/sparse_transforms.h"
#include "serve/server.h"

namespace entmatcher {
namespace {

// The sparse pipeline's bit-identity contract: with complete candidate lists
// (num_candidates = m, every list probed) each sparse transform and matcher
// reproduces its dense counterpart bit-for-bit, at every thread count. The
// approximation lives ONLY in which cells the index emits, never in how the
// emitted cells are scored, transformed, or decided.

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

const char* MatcherName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kGreedy:
      return "greedy";
    case MatcherKind::kGreedyOneToOne:
      return "greedy-1to1";
    case MatcherKind::kMutualBest:
      return "mutual-best";
    default:
      return "?";
  }
}

class SparseMatchTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

 private:
  size_t previous_threads_;
};

MatchOptions WithIndex(MatchOptions options, const CandidateIndex* index,
                       size_t candidates, size_t nprobe) {
  options.candidate_index = index;
  options.num_candidates = candidates;
  options.index_nprobe = nprobe;
  return options;
}

TEST_F(SparseMatchTest, CompleteListsBitIdenticalToDenseEverywhere) {
  const Matrix src = RandomMatrix(41, 12, 101);
  const Matrix tgt = RandomMatrix(37, 12, 102);
  CandidateIndexOptions index_options;
  index_options.num_lists = 5;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());

  // Every sparse-capable preset, plus top-k means wider than one entry: the
  // row statistics of CSLS and RInf then sum several values, so their
  // summation order must match as well.
  std::vector<std::pair<std::string, MatchOptions>> cases;
  for (AlgorithmPreset preset : SparseCapablePresets()) {
    cases.emplace_back(PresetName(preset), MakePreset(preset));
  }
  MatchOptions csls_k5 = MakePreset(AlgorithmPreset::kCsls);
  csls_k5.csls_k = 5;
  cases.emplace_back("CSLS k=5", csls_k5);
  MatchOptions rinf_k3 = MakePreset(AlgorithmPreset::kRinf);
  rinf_k3.rinf_k = 3;
  cases.emplace_back("RInf k=3", rinf_k3);

  for (size_t threads : {1u, 7u}) {
    SetNumThreads(threads);
    for (const auto& [name, dense_options] : cases) {
      const MatchOptions sparse_options = WithIndex(
          dense_options, &*index, tgt.rows(), index->num_lists());

      Result<MatchEngine> engine =
          MatchEngine::Create(src, tgt, dense_options);
      ASSERT_TRUE(engine.ok());
      Result<Matrix> dense_scores = engine->TransformedScores(dense_options);
      ASSERT_TRUE(dense_scores.ok()) << name;

      Result<MatchEngine::ScoredBatch> batch =
          engine->BeginBatch(sparse_options);
      ASSERT_TRUE(batch.ok()) << name;
      ASSERT_TRUE(batch->is_sparse());
      const SparseScores& sparse = batch->sparse_scores();
      ASSERT_EQ(sparse.nnz(), src.rows() * tgt.rows());
      ASSERT_TRUE(sparse.Validate().ok());
      const Matrix expanded = sparse.ToDense(0.0f);
      EXPECT_EQ(std::memcmp(expanded.data(), dense_scores->data(),
                            dense_scores->ByteSize()),
                0)
          << name << " transformed values differ at " << threads << " threads";

      for (MatcherKind matcher : SparseCapableMatchers()) {
        MatchOptions dense_match = dense_options;
        dense_match.matcher = matcher;
        Result<Assignment> expected = MatchScores(*dense_scores, dense_match);
        ASSERT_TRUE(expected.ok()) << name << "/" << MatcherName(matcher);
        MatchOptions sparse_match = sparse_options;
        sparse_match.matcher = matcher;
        Result<Assignment> actual = batch->Match(sparse_match);
        ASSERT_TRUE(actual.ok()) << name << "/" << MatcherName(matcher);
        EXPECT_EQ(actual->target_of_source, expected->target_of_source)
            << name << "/" << MatcherName(matcher) << " at " << threads
            << " threads";
      }
    }
  }
}

// Exercised under TSan in CI: a multi-threaded sparse pipeline run must be
// race-free and reproduce the single-threaded assignment exactly.
TEST_F(SparseMatchTest, MultiThreadedSparseRunIsDeterministic) {
  const Matrix src = RandomMatrix(53, 10, 111);
  const Matrix tgt = RandomMatrix(47, 10, 112);
  CandidateIndexOptions index_options;
  index_options.num_lists = 6;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());
  const MatchOptions options = WithIndex(MakePreset(AlgorithmPreset::kCsls),
                                         &*index, /*candidates=*/8,
                                         /*nprobe=*/3);

  SetNumThreads(1);
  Result<Assignment> serial = MatchEmbeddings(src, tgt, options);
  ASSERT_TRUE(serial.ok());
  SetNumThreads(7);
  for (int repeat = 0; repeat < 3; ++repeat) {
    Result<Assignment> parallel = MatchEmbeddings(src, tgt, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->target_of_source, serial->target_of_source)
        << "repeat " << repeat;
  }
}

TEST_F(SparseMatchTest, UnsupportedStagesAreRefused) {
  const Matrix src = RandomMatrix(12, 6, 121);
  const Matrix tgt = RandomMatrix(10, 6, 122);
  CandidateIndexOptions index_options;
  index_options.num_lists = 2;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());
  const MatchOptions base =
      WithIndex(MakePreset(AlgorithmPreset::kCsls), &*index, 4, 2);
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, base);
  ASSERT_TRUE(engine.ok());

  // Sinkhorn couples every cell; no sparse variant.
  MatchOptions sinkhorn = WithIndex(MakePreset(AlgorithmPreset::kSinkhorn),
                                    &*index, 4, 2);
  Result<Assignment> rejected = engine->Match(sinkhorn);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Hungarian / Gale-Shapley / RL have no candidate-list semantics.
  for (MatcherKind matcher :
       {MatcherKind::kHungarian, MatcherKind::kGaleShapley, MatcherKind::kRl}) {
    MatchOptions options = base;
    options.matcher = matcher;
    Result<Assignment> refused = engine->Match(options);
    ASSERT_FALSE(refused.ok()) << static_cast<int>(matcher);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  }

  // A dense matrix view of a sparse batch does not exist.
  Result<Matrix> no_dense = engine->TransformedScores(base);
  ASSERT_FALSE(no_dense.ok());
  EXPECT_EQ(no_dense.status().code(), StatusCode::kInvalidArgument);

  // candidate_index without a width is a configuration error, not a default.
  MatchOptions no_width = base;
  no_width.num_candidates = 0;
  Result<Assignment> unconfigured = engine->Match(no_width);
  ASSERT_FALSE(unconfigured.ok());
  EXPECT_EQ(unconfigured.status().code(), StatusCode::kInvalidArgument);

  // An index over a different target set must be refused.
  const Matrix other = RandomMatrix(9, 6, 123);
  Result<CandidateIndex> mismatched =
      CandidateIndex::Build(other, index_options);
  ASSERT_TRUE(mismatched.ok());
  Result<Assignment> wrong_targets = engine->Match(
      WithIndex(MakePreset(AlgorithmPreset::kCsls), &*mismatched, 4, 2));
  ASSERT_FALSE(wrong_targets.ok());
  EXPECT_EQ(wrong_targets.status().code(), StatusCode::kInvalidArgument);

  // The engine still serves feasible queries after every rejection.
  EXPECT_TRUE(engine->Match(base).ok());
  EXPECT_EQ(engine->workspace().in_use_bytes(), 0u);
}

TEST_F(SparseMatchTest, SignatureSeparatesSparseFromDense) {
  const Matrix tgt = RandomMatrix(10, 6, 131);
  Result<CandidateIndex> index =
      CandidateIndex::Build(tgt, CandidateIndexOptions());
  ASSERT_TRUE(index.ok());

  const MatchOptions dense = MakePreset(AlgorithmPreset::kCsls);
  MatchOptions stray = dense;
  stray.index_nprobe = 9;  // ignored without an index
  EXPECT_TRUE(ScoreSignature::Of(dense) == ScoreSignature::Of(stray));

  const MatchOptions sparse = WithIndex(dense, &*index, 4, 2);
  EXPECT_FALSE(ScoreSignature::Of(dense) == ScoreSignature::Of(sparse));
  MatchOptions wider = sparse;
  wider.num_candidates = 5;
  EXPECT_FALSE(ScoreSignature::Of(sparse) == ScoreSignature::Of(wider));
  MatchOptions same = sparse;
  same.matcher = MatcherKind::kGreedyOneToOne;  // decision stage: not a key
  EXPECT_TRUE(ScoreSignature::Of(sparse) == ScoreSignature::Of(same));

  // A mis-keyed decision is refused: dense options on a sparse batch.
  const Matrix src = RandomMatrix(8, 6, 132);
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, sparse);
  ASSERT_TRUE(engine.ok());
  Result<MatchEngine::ScoredBatch> batch = engine->BeginBatch(sparse);
  ASSERT_TRUE(batch.ok());
  Result<Assignment> mismatched = batch->Match(dense);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SparseMatchTest, SparseDeclaresAndUsesLessWorkspace) {
  const Matrix src = RandomMatrix(60, 8, 141);
  const Matrix tgt = RandomMatrix(50, 8, 142);
  Result<CandidateIndex> index =
      CandidateIndex::Build(tgt, CandidateIndexOptions());
  ASSERT_TRUE(index.ok());

  const MatchOptions dense = MakePreset(AlgorithmPreset::kCsls);
  const MatchOptions sparse = WithIndex(dense, &*index, 8, 2);
  Result<MatchEngine> probe = MatchEngine::Create(src, tgt, dense);
  ASSERT_TRUE(probe.ok());
  const size_t dense_bytes = probe->DeclaredWorkspaceBytes(dense);
  const size_t sparse_bytes = probe->DeclaredWorkspaceBytes(sparse);
  EXPECT_EQ(sparse_bytes, SparseScores::BytesFor(60 * 8));
  EXPECT_LT(sparse_bytes, dense_bytes);

  // A budget between the two declarations admits the sparse query and
  // rejects the dense one — the sub-quadratic path working as a capability,
  // not just an optimization.
  MatchOptions budgeted = sparse;
  budgeted.workspace_budget_bytes = (sparse_bytes + dense_bytes) / 2;
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, budgeted);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->Match(budgeted).ok());
  EXPECT_LE(engine->workspace().high_water_bytes(), sparse_bytes);
  MatchOptions dense_budgeted = dense;
  dense_budgeted.workspace_budget_bytes = budgeted.workspace_budget_bytes;
  Result<Assignment> rejected = engine->Match(dense_budgeted);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->workspace().in_use_bytes(), 0u);
}

TEST_F(SparseMatchTest, WarmSparseQueriesDoNotGrowArena) {
  const Matrix src = RandomMatrix(30, 8, 151);
  const Matrix tgt = RandomMatrix(24, 8, 152);
  Result<CandidateIndex> index =
      CandidateIndex::Build(tgt, CandidateIndexOptions());
  ASSERT_TRUE(index.ok());
  const MatchOptions options =
      WithIndex(MakePreset(AlgorithmPreset::kRinf), &*index, 6, 2);
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Match(options).ok());
  const size_t capacity = engine->workspace().capacity_bytes();
  const size_t high_water = engine->workspace().high_water_bytes();
  EXPECT_GT(capacity, 0u);
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(engine->Match(options).ok());
    EXPECT_EQ(engine->workspace().capacity_bytes(), capacity)
        << "arena grew on warm sparse query " << warm;
    EXPECT_EQ(engine->workspace().high_water_bytes(), high_water);
    EXPECT_EQ(engine->workspace().in_use_bytes(), 0u);
  }
}

TEST_F(SparseMatchTest, PartialListsDecideOverPresentEntriesOnly) {
  const Matrix src = RandomMatrix(21, 8, 161);
  const Matrix tgt = RandomMatrix(33, 8, 162);
  CandidateIndexOptions index_options;
  index_options.num_lists = 4;
  Result<CandidateIndex> index = CandidateIndex::Build(tgt, index_options);
  ASSERT_TRUE(index.ok());
  const MatchOptions options =
      WithIndex(MakePreset(AlgorithmPreset::kDInf), &*index, 5, 2);
  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, options);
  ASSERT_TRUE(engine.ok());
  Result<MatchEngine::ScoredBatch> batch = engine->BeginBatch(options);
  ASSERT_TRUE(batch.ok());
  const SparseScores& sparse = batch->sparse_scores();
  MatchOptions greedy = options;
  greedy.matcher = MatcherKind::kGreedy;
  Result<Assignment> assignment = batch->Match(greedy);
  ASSERT_TRUE(assignment.ok());
  // Every decision points at a cell the index actually emitted for that row.
  for (size_t i = 0; i < assignment->size(); ++i) {
    const int32_t j = assignment->target_of_source[i];
    if (j == Assignment::kUnmatched) {
      EXPECT_TRUE(sparse.RowValues(i).empty());
      continue;
    }
    bool present = false;
    for (uint32_t col : sparse.RowCols(i)) present |= (col == uint32_t(j));
    EXPECT_TRUE(present) << "row " << i << " matched absent column " << j;
  }
}

TEST_F(SparseMatchTest, ServedSparseQueriesBatchAndStayBitIdentical) {
  const Matrix src = RandomMatrix(26, 8, 171);
  const Matrix tgt = RandomMatrix(22, 8, 172);
  Result<CandidateIndex> index =
      CandidateIndex::Build(tgt, CandidateIndexOptions());
  ASSERT_TRUE(index.ok());
  const MatchOptions dense = MakePreset(AlgorithmPreset::kCsls);
  const MatchOptions sparse = WithIndex(dense, &*index, 6, 2);

  // One-shot references, computed outside the server.
  Result<Assignment> dense_reference = MatchEmbeddings(src, tgt, dense);
  Result<Assignment> sparse_reference = MatchEmbeddings(src, tgt, sparse);
  ASSERT_TRUE(dense_reference.ok());
  ASSERT_TRUE(sparse_reference.ok());

  MatchServerConfig config;
  config.flush_micros = 200000;  // wide window: grouping must not be timing-luck
  Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->LoadPair("pair", src, tgt).ok());
  ASSERT_TRUE((*server)->Start().ok());

  ServeRequest dense_request;
  dense_request.pair = "pair";
  dense_request.options = dense;
  ServeRequest sparse_request;
  sparse_request.pair = "pair";
  sparse_request.options = sparse;
  ServeRequest sparse_again = sparse_request;
  sparse_again.options.matcher = MatcherKind::kGreedyOneToOne;

  std::vector<std::future<ServeResponse>> futures;
  futures.push_back((*server)->Submit(dense_request));
  futures.push_back((*server)->Submit(sparse_request));
  futures.push_back((*server)->Submit(sparse_again));
  ServeResponse dense_response = futures[0].get();
  ServeResponse sparse_response = futures[1].get();
  ServeResponse sparse_1to1_response = futures[2].get();

  ASSERT_TRUE(dense_response.status.ok());
  ASSERT_TRUE(sparse_response.status.ok());
  ASSERT_TRUE(sparse_1to1_response.status.ok());
  EXPECT_EQ(dense_response.assignment.target_of_source,
            dense_reference->target_of_source);
  EXPECT_EQ(sparse_response.assignment.target_of_source,
            sparse_reference->target_of_source);
  // Same signature => the two sparse queries shared one scores pass.
  EXPECT_EQ(sparse_response.batch_size, 2u);
  EXPECT_EQ(sparse_1to1_response.batch_size, 2u);
  // The dense query keyed into its own group despite arriving in the cycle.
  EXPECT_EQ(dense_response.batch_size, 1u);

  // Top-k needs the dense score path; a sparse top-k is refused at admission.
  ServeRequest topk = sparse_request;
  topk.kind = ServeQueryKind::kTopK;
  topk.topk = 3;
  ServeResponse refused = (*server)->Query(topk);
  ASSERT_FALSE(refused.status.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);

  // So is a sparse Hungarian — before queueing, not at execution.
  ServeRequest hungarian = sparse_request;
  hungarian.options.matcher = MatcherKind::kHungarian;
  ServeResponse refused_matcher = (*server)->Query(hungarian);
  ASSERT_FALSE(refused_matcher.status.ok());
  EXPECT_EQ(refused_matcher.status.code(), StatusCode::kInvalidArgument);

  (*server)->Shutdown();
}

// Serving admission applies the engine's own sparse-query rules, so every
// query the engine would refuse at execution is refused before it queues —
// with the engine's status code.
TEST_F(SparseMatchTest, ServedSparseQueriesMeetTheEngineRulesAtAdmission) {
  const Matrix src = RandomMatrix(12, 6, 181);
  const Matrix tgt = RandomMatrix(10, 6, 182);
  Result<CandidateIndex> ivf =
      CandidateIndex::Build(tgt, CandidateIndexOptions());
  CandidateIndexOptions hnsw_options;
  hnsw_options.backend = CandidateBackendKind::kHnsw;
  Result<CandidateIndex> hnsw = CandidateIndex::Build(tgt, hnsw_options);
  Result<CandidateIndex> other =
      CandidateIndex::Build(RandomMatrix(9, 6, 183), CandidateIndexOptions());
  ASSERT_TRUE(ivf.ok() && hnsw.ok() && other.ok());
  const MatchOptions base =
      WithIndex(MakePreset(AlgorithmPreset::kCsls), &*ivf, 4, 2);

  std::vector<MatchOptions> refused;
  refused.push_back(base);
  refused.back().num_candidates = 0;
  refused.push_back(base);
  refused.back().index_nprobe = 0;
  refused.push_back(WithIndex(MakePreset(AlgorithmPreset::kCsls), &*hnsw, 4,
                              /*nprobe=*/2));
  refused.back().index_ef = 0;
  refused.push_back(WithIndex(MakePreset(AlgorithmPreset::kSinkhorn), &*ivf,
                              4, 2));
  refused.push_back(WithIndex(MakePreset(AlgorithmPreset::kCsls), &*other, 4,
                              2));

  Result<MatchEngine> engine = MatchEngine::Create(src, tgt, base);
  ASSERT_TRUE(engine.ok());
  Result<std::unique_ptr<MatchServer>> server =
      MatchServer::Create(MatchServerConfig());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->LoadPair("pair", src, tgt).ok());
  ASSERT_TRUE((*server)->Start().ok());
  for (size_t q = 0; q < refused.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    EXPECT_EQ(MatchEngine::ValidateSparseQuery(refused[q], tgt.rows()).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine->Match(refused[q]).status().code(),
              StatusCode::kInvalidArgument);
    ServeRequest request;
    request.pair = "pair";
    request.options = refused[q];
    EXPECT_EQ((*server)->Query(request).status.code(),
              StatusCode::kInvalidArgument);
  }
  const ServerStatsSnapshot stats = (*server)->Stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, refused.size());

  // The same index and knobs, configured correctly, are served.
  ServeRequest request;
  request.pair = "pair";
  request.options = base;
  EXPECT_TRUE((*server)->Query(request).status.ok());
  (*server)->Shutdown();
}

}  // namespace
}  // namespace entmatcher
