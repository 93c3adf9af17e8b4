#include "arms.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "la/ranking.h"
#include "la/similarity.h"
#include "la/sparse.h"
#include "la/topk.h"
#include "matching/pipeline.h"
#include "matching/snapshot.h"
#include "matching/sparse_matchers.h"
#include "matching/sparse_transforms.h"
#include "matching/transforms.h"

namespace perfbench {

using entmatcher::AlgorithmPreset;
using entmatcher::Assignment;
using entmatcher::CandidateIndex;
using entmatcher::CandidateIndexOptions;
using entmatcher::MatchEngine;
using entmatcher::MatchOptions;
using entmatcher::Matrix;
using entmatcher::Result;
using entmatcher::ScratchMatrix;
using entmatcher::SimilarityCache;
using entmatcher::SimilarityMetric;
using entmatcher::SparseScores;
using entmatcher::Status;

namespace {

constexpr size_t kRowTopK = 10;

// match_ms.<arm> is the 75th percentile of the arm's warm Match CPU times,
// not the median. On a shared host the same call ran at one of two speeds
// about 1.5x apart, switching every second or so, in CPU time as in wall
// time, and the share of fast samples ranged from none to about 60% from one
// run to the next. The median, or a low percentile, followed that share
// across runs; the 75th percentile stays on the common, slower speed unless
// three quarters of a run was fast.
constexpr double kArmPercentile = 0.75;

double MedianOf(const std::string& span_name) {
  return Median(Tracer::Global().DurationsMs(span_name));
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

AlgorithmPreset PresetOfArm(const std::string& arm) {
  if (arm == "dinf") return AlgorithmPreset::kDInf;
  if (arm == "csls" || arm == "csls-hnsw") return AlgorithmPreset::kCsls;
  if (arm == "rinf") return AlgorithmPreset::kRinf;
  if (arm == "rinf-wr") return AlgorithmPreset::kRinfWr;
  if (arm == "rinf-pb") return AlgorithmPreset::kRinfPb;
  if (arm == "sinkhorn") return AlgorithmPreset::kSinkhorn;
  if (arm == "hungarian") return AlgorithmPreset::kHungarian;
  return AlgorithmPreset::kStableMatch;
}

}  // namespace

const std::vector<std::string>& DensePresetArms() {
  static const std::vector<std::string> kArms = {
      "dinf", "csls", "rinf", "rinf-wr", "rinf-pb", "sinkhorn", "hungarian",
      "smat"};
  return kArms;
}

const std::vector<std::string>& ArmNames() {
  static const std::vector<std::string> kArms = [] {
    std::vector<std::string> arms = DensePresetArms();
    arms.push_back("csls-hnsw");
    return arms;
  }();
  return kArms;
}

Result<std::unique_ptr<PresetSuite>> PresetSuite::Create(
    Pair dense, Pair sparse, const SuiteShape& shape) {
  std::unique_ptr<PresetSuite> suite(new PresetSuite());
  suite->shape_ = shape;
  for (const std::string& arm : DensePresetArms()) {
    EM_ASSIGN_OR_RETURN(
        MatchEngine engine,
        MatchEngine::Create(Matrix(dense.source), Matrix(dense.target),
                            entmatcher::MakePreset(PresetOfArm(arm))));
    suite->engines_[arm] = std::make_unique<MatchEngine>(std::move(engine));
  }
  {
    CandidateIndexOptions options;
    options.backend = entmatcher::CandidateBackendKind::kHnsw;
    options.hnsw_max_links = shape.hnsw_links;
    options.hnsw_ef_construction = shape.hnsw_ef_construction;
    Span span("index.build");
    EM_ASSIGN_OR_RETURN(CandidateIndex index,
                        CandidateIndex::Build(sparse.target, options));
    suite->index_build_s_ = span.Close() / 1e3;
    suite->index_ = std::make_unique<CandidateIndex>(std::move(index));
  }
  MatchOptions sparse_options = entmatcher::MakePreset(AlgorithmPreset::kCsls);
  sparse_options.candidate_index = suite->index_.get();
  sparse_options.num_candidates = shape.candidates;
  sparse_options.index_ef = shape.ef_search;
  EM_ASSIGN_OR_RETURN(
      MatchEngine engine,
      MatchEngine::Create(Matrix(sparse.source), Matrix(sparse.target),
                          sparse_options));
  suite->engines_["csls-hnsw"] =
      std::make_unique<MatchEngine>(std::move(engine));
  suite->dense_ = std::move(dense);
  suite->sparse_ = std::move(sparse);
  return suite;
}

MatchEngine& PresetSuite::EngineOf(const std::string& arm) {
  return *engines_.at(arm);
}

double PresetSuite::RunArm(const std::string& arm, Ledger* ledger,
                           uint64_t request) {
  MatchEngine& engine = EngineOf(arm);
  Span span("match." + arm, request);
  const double cpu_start_ms = SelfCpuMs();
  Result<Assignment> result = engine.Match();
  const double ms = SelfCpuMs() - cpu_start_ms;
  span.Close();
  if (!result.ok()) {
    ledger->Fail(arm + " Match: " + result.status().ToString());
    return ms;
  }
  size_t& peak = workspace_peak_[arm];
  peak = std::max(peak, engine.workspace().high_water_bytes());
  auto cold = cold_.find(arm);
  if (cold == cold_.end()) {
    cold_[arm] = result->target_of_source;
    ledger->Ok();
  } else {
    ledger->Check(result->target_of_source == cold->second,
                  arm + ": warm answer differs from the cold one");
  }
  return ms;
}

void PresetSuite::Cold(Ledger* ledger) {
  for (const std::string& arm : ArmNames()) {
    RunArm(arm, ledger, next_request_++);
  }
}

void PresetSuite::WarmLoop(
    double budget_s, size_t min_rounds, Ledger* ledger, LoopResult* out,
    const std::function<void(std::vector<double>*)>& per_round) {
  const Clock::time_point start = Clock::now();
  auto reps_of = [&](const std::string& arm) -> size_t {
    auto it = shape_.reps_per_round.find(arm);
    return it == shape_.reps_per_round.end() ? 1 : it->second;
  };
  size_t max_reps = 1;
  for (const std::string& arm : ArmNames()) {
    max_reps = std::max(max_reps, reps_of(arm));
  }
  for (size_t rounds = 1;; ++rounds) {
    // Repeats of an arm are spread across the round, not run back to back,
    // so its samples see more of the run.
    for (size_t rep = 0; rep < max_reps; ++rep) {
      for (const std::string& arm : ArmNames()) {
        if (rep >= reps_of(arm)) continue;
        const double ms = RunArm(arm, ledger, next_request_++);
        out->arm_ms[arm].push_back(ms);
        out->all_ms.push_back(ms);
      }
    }
    if (per_round) per_round(&out->swap_ms);
    if (MsBetween(start, Clock::now()) / 1e3 >= budget_s &&
        rounds >= min_rounds) {
      return;
    }
  }
}

void PresetSuite::Pass(size_t index, Ledger* ledger, LoopResult* out) {
  std::map<size_t, size_t> staggered;  // period -> arms of it seen so far
  for (const std::string& arm : ArmNames()) {
    auto it = shape_.pass_period.find(arm);
    if (it != shape_.pass_period.end() && it->second > 1) {
      const size_t period = it->second;
      if (index % period != staggered[period]++ % period) continue;
    }
    const double ms = RunArm(arm, ledger, next_request_++);
    out->arm_ms[arm].push_back(ms);
    out->all_ms.push_back(ms);
  }
}

void PresetSuite::Staged(size_t reps, Ledger* ledger) {
  entmatcher::Workspace* ws = &staged_workspace_;
  for (const std::string& arm : DensePresetArms()) {
    MatchEngine& engine = EngineOf(arm);
    const MatchOptions& options = engine.options();
    const auto& snapshot = engine.snapshot();
    const size_t n = snapshot->source().rows();
    const size_t m = snapshot->target().rows();
    const SimilarityCache& cache = snapshot->EnsureCache(options.metric);
    Result<Matrix> engine_scores = engine.TransformedScores(options);
    if (!engine_scores.ok()) {
      ledger->Fail(arm + " TransformedScores: " +
                   engine_scores.status().ToString());
      continue;
    }
    for (size_t rep = 0; rep < reps; ++rep) {
      // The engine's own Match, next to the staged run, so engine self time
      // compares measurements taken moments apart.
      {
        Span span("staged_match." + arm);
        Result<Assignment> whole = engine.Match();
        ledger->Check(whole.ok() && whole->target_of_source == cold_[arm],
                      arm + ": warm answer differs from the cold one");
      }
      const uint64_t request = next_request_++;
      Span whole("staged." + arm, request);
      Result<ScratchMatrix> scores = ScratchMatrix::Acquire(ws, n, m);
      if (!scores.ok()) {
        ledger->Fail(arm + " lease: " + scores.status().ToString());
        continue;
      }
      Status status;
      {
        Span span("stage.similarity." + arm, request);
        status = entmatcher::ComputeSimilarityRange(
            snapshot->source(), snapshot->target(), options.metric, cache, 0,
            n, &scores->get());
      }
      if (status.ok()) {
        Span span("stage.transform." + arm, request);
        status = entmatcher::ApplyScoreTransformInPlace(&scores->get(),
                                                        options, ws);
      }
      if (!status.ok()) {
        ledger->Fail(arm + " staged scores: " + status.ToString());
        continue;
      }
      const bool same_scores = SameBits(scores->get(), *engine_scores);
      Result<Assignment> decided = Status::Internal("not run");
      {
        Span span("stage.decision." + arm, request);
        decided = entmatcher::MatchScores(scores->get(), options, ws);
      }
      const bool identical = decided.ok() && same_scores &&
                             decided->target_of_source == cold_[arm];
      ++staged_checked_;
      staged_identical_ += identical;
      ledger->Check(identical,
                    arm + ": staged decomposition differs from the engine");
    }
  }

  // The sparse arm: candidate fill, sparse transform, sparse decision.
  MatchEngine& engine = EngineOf("csls-hnsw");
  const MatchOptions& options = engine.options();
  const auto& snapshot = engine.snapshot();
  const size_t n = snapshot->source().rows();
  const size_t m = snapshot->target().rows();
  const SimilarityCache& cache = snapshot->EnsureCache(options.metric);
  entmatcher::ProbeParams probe;
  probe.nprobe = options.index_nprobe;
  probe.ef_search = options.index_ef;
  for (size_t rep = 0; rep < reps; ++rep) {
    const uint64_t request = next_request_++;
    Span whole("staged.csls-hnsw", request);
    SparseScores sparse = SparseScores::CreateOwned(
        n, m, n * std::min(options.num_candidates, m));
    Status status;
    {
      Span span("index.fill", request);
      status = index_->FillSparseScores(snapshot->source(), snapshot->target(),
                                        options.metric, cache,
                                        options.num_candidates, probe, &sparse);
    }
    if (status.ok() && rep == 0) {
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        for (uint32_t col : sparse.RowCols(i)) kept += col == i;
      }
      recall_ = static_cast<double>(kept) / static_cast<double>(n);
    }
    if (status.ok()) {
      Span span("matching.sparse_transform", request);
      status = entmatcher::ApplySparseScoreTransformInPlace(&sparse, options,
                                                            ws);
    }
    if (!status.ok()) {
      ledger->Fail("csls-hnsw staged scores: " + status.ToString());
      continue;
    }
    Result<Assignment> decided = Status::Internal("not run");
    {
      Span span("matching.sparse_decision", request);
      decided = entmatcher::MatchSparseScores(sparse, options);
    }
    const bool identical =
        decided.ok() && decided->target_of_source == cold_["csls-hnsw"];
    ++staged_checked_;
    staged_identical_ += identical;
    ledger->Check(identical,
                  "csls-hnsw: staged decomposition differs from the engine");
  }
}

void PresetSuite::Layers(size_t reps, Ledger* ledger) {
  const Matrix& src = dense_.source;
  const Matrix& tgt = dense_.target;
  const size_t n = src.rows();
  const size_t m = tgt.rows();
  Matrix product(n, m);
  for (size_t rep = 0; rep < reps; ++rep) {
    Span span("la.matmul");
    const Status status =
        entmatcher::MatMulTransposedRange(src, tgt, 0, n, &product);
    if (!status.ok()) ledger->Fail("matmul: " + status.ToString());
  }
  const SimilarityCache cache =
      entmatcher::BuildSimilarityCache(src, tgt, SimilarityMetric::kCosine);
  Matrix sim(n, m);
  for (size_t rep = 0; rep < reps; ++rep) {
    Span span("la.similarity");
    const Status status = entmatcher::ComputeSimilarityRange(
        src, tgt, SimilarityMetric::kCosine, cache, 0, n, &sim);
    if (!status.ok()) ledger->Fail("similarity: " + status.ToString());
  }
  const size_t csls_k = entmatcher::MakePreset(AlgorithmPreset::kCsls).csls_k;
  size_t sink = 0;  // keeps the results observable
  for (size_t rep = 0; rep < reps; ++rep) {
    Span span("la.col_topk_mean");
    sink += entmatcher::ColTopKMean(sim, csls_k).size();
  }
  for (size_t rep = 0; rep < reps; ++rep) {
    Span span("la.row_topk");
    sink += entmatcher::RowTopKIndices(sim, kRowTopK).size();
  }
  Matrix ranked(n, m);
  for (size_t rep = 0; rep < reps; ++rep) {
    ranked = sim;
    Span span("la.rank");
    entmatcher::RowRankMatrixInPlace(&ranked);
  }
  for (size_t rep = 0; rep < reps; ++rep) {
    Matrix a(src);
    Matrix b(tgt);
    Span span("matching.snapshot_build");
    Result<std::shared_ptr<entmatcher::PairSnapshot>> snapshot =
        entmatcher::PairSnapshot::Build(std::move(a), std::move(b));
    if (!snapshot.ok()) {
      ledger->Fail("snapshot build: " + snapshot.status().ToString());
      continue;
    }
    (*snapshot)->EnsureCache(SimilarityMetric::kCosine);
  }
  ledger->Check(sink == reps * (m + n * std::min(kRowTopK, m)),
                "top-k kernels returned the wrong sizes");

  // HNSW probe stage alone: the candidates it proposes are exactly the
  // exact-rerank comparisons the fill spends.
  const MatchOptions& options = EngineOf("csls-hnsw").options();
  entmatcher::ProbeParams probe;
  probe.nprobe = options.index_nprobe;
  probe.ef_search = std::max(options.index_ef, options.num_candidates);
  entmatcher::CandidateScratch scratch;
  std::vector<uint32_t> candidates;
  for (size_t rep = 0; rep < std::max<size_t>(1, reps / 2); ++rep) {
    size_t total = 0;
    Span span("index.collect");
    for (size_t i = 0; i < sparse_.source.rows(); ++i) {
      candidates.clear();
      index_->CollectCandidates(sparse_.target, sparse_.source.Row(i).data(),
                                probe, &scratch, &candidates);
      total += candidates.size();
    }
    collected_per_row_ = static_cast<double>(total) /
                         static_cast<double>(sparse_.source.rows());
  }
}

void PresetSuite::ReportLayers(Report* report) const {
  const double n = static_cast<double>(dense_.source.rows());
  const double m = static_cast<double>(dense_.target.rows());
  const double d = static_cast<double>(dense_.source.cols());
  const double matmul_ms = MedianOf("la.matmul");
  report->Set("la.matmul_gflops",
              matmul_ms > 0.0 ? 2.0 * n * m * d / (matmul_ms * 1e6) : 0.0,
              "GFLOP/s");
  report->Set("la.similarity_ms", MedianOf("la.similarity"), "ms");
  report->Set("la.col_topk_mean_ms", MedianOf("la.col_topk_mean"), "ms");
  report->Set("la.row_topk_ms", MedianOf("la.row_topk"), "ms");
  report->Set("la.rank_ms", MedianOf("la.rank"), "ms");
  for (const std::string& arm : DensePresetArms()) {
    auto it = workspace_peak_.find(arm);
    const double bytes =
        it == workspace_peak_.end() ? 0.0 : static_cast<double>(it->second);
    report->Set("la.workspace_peak_mb." + arm, bytes / (1024.0 * 1024.0),
                "MB");
  }
  for (const char* arm : {"csls", "rinf", "rinf-wr", "rinf-pb", "sinkhorn"}) {
    report->Set(std::string("matching.transform_ms.") + arm,
                MedianOf(std::string("stage.transform.") + arm), "ms");
  }
  report->Set("matching.decision_ms.greedy", MedianOf("stage.decision.dinf"),
              "ms");
  report->Set("matching.decision_ms.hungarian",
              MedianOf("stage.decision.hungarian"), "ms");
  report->Set("matching.decision_ms.smat", MedianOf("stage.decision.smat"),
              "ms");
  for (const std::string& arm : DensePresetArms()) {
    const double stages = MedianOf("stage.similarity." + arm) +
                          MedianOf("stage.transform." + arm) +
                          MedianOf("stage.decision." + arm);
    report->Set("matching.engine_self_ms." + arm,
                MedianOf("staged_match." + arm) - stages, "ms");
  }
  report->Set("matching.snapshot_build_ms", MedianOf("matching.snapshot_build"),
              "ms");
  report->Set("index.build_s", index_build_s_, "s");
  report->Set("index.collect_ms", MedianOf("index.collect"), "ms");
  report->Set("index.rerank_cmp_per_row", collected_per_row_, "count");
  report->Set("index.fill_ms", MedianOf("index.fill"), "ms");
  report->Set("index.recall", recall_, "ratio");
  report->Set("matching.sparse_transform_ms",
              MedianOf("matching.sparse_transform"), "ms");
  report->Set("matching.sparse_decision_ms",
              MedianOf("matching.sparse_decision"), "ms");
}

double PresetSuite::DInfAccuracy() const {
  auto it = cold_.find("dinf");
  return it == cold_.end() ? 0.0 : IdentityAccuracy(it->second);
}

SuiteShape ServingArmsShape(const PairShape& pair, bool tiny) {
  SuiteShape shape;
  shape.dense = pair;
  shape.sparse = pair;
  if (!tiny) {
    // The three arms of 100-200 ms take turns, one per pass, so a pass
    // lasts about 0.3 s and stays within one of the host's speed phases.
    shape.pass_period = {{"rinf", 3}, {"sinkhorn", 3}, {"smat", 3}};
  }
  return shape;
}

LoopResult InterleaveArms(PresetSuite* suite, Ledger* ledger, double seconds,
                          size_t segments,
                          const std::function<void(double)>& segment) {
  LoopResult arms;
  suite->Pass(0, ledger, &arms);
  for (size_t s = 0; s < segments; ++s) {
    segment(seconds / static_cast<double>(segments));
    suite->Pass(s + 1, ledger, &arms);
  }
  return arms;
}

Result<std::vector<int32_t>> SoloAnswer(MatchEngine* engine,
                                        const QueryKind& kind) {
  const MatchOptions options = entmatcher::MakePreset(kind.preset);
  if (kind.topk == 0) {
    EM_ASSIGN_OR_RETURN(Assignment assignment, engine->Match(options));
    return std::move(assignment.target_of_source);
  }
  EM_ASSIGN_OR_RETURN(MatchEngine::ScoredBatch batch,
                      engine->BeginBatch(options));
  const std::vector<uint32_t> ids =
      entmatcher::RowTopKIndices(batch.scores(), kind.topk);
  return std::vector<int32_t>(ids.begin(), ids.end());
}

Result<VersionedAnswers> SoloAnswers(const Pair versions[2],
                                     const std::vector<QueryKind>& kinds) {
  VersionedAnswers answers;
  for (size_t v = 0; v < 2; ++v) {
    EM_ASSIGN_OR_RETURN(MatchEngine engine,
                        MatchEngine::Create(Matrix(versions[v].source),
                                            Matrix(versions[v].target),
                                            MatchOptions()));
    for (const QueryKind& kind : kinds) {
      EM_ASSIGN_OR_RETURN(std::vector<int32_t> answer,
                          SoloAnswer(&engine, kind));
      answers.by_version[v].push_back(std::move(answer));
    }
  }
  return answers;
}

void ReportStagedCheck(const PresetSuite& suite, Report* report) {
  report->Info("staged_decomposition",
               "{\"checked\": " + std::to_string(suite.staged_checked()) +
                   ", \"identical\": " +
                   std::to_string(suite.staged_identical()) + "}");
}

void ReportLoop(const LoopResult& loop, Report* report, bool closed_loop_e2e) {
  for (const std::string& arm : ArmNames()) {
    auto it = loop.arm_ms.find(arm);
    if (it == loop.arm_ms.end()) continue;
    report->Set("match_ms." + arm, Percentile(it->second, kArmPercentile),
                "ms");
    report->Samples("match_ms." + arm, it->second.size());
  }
  if (!closed_loop_e2e) return;
  double busy_ms = 0.0;
  for (double ms : loop.all_ms) busy_ms += ms;
  report->Set("qps",
              busy_ms > 0.0
                  ? static_cast<double>(loop.all_ms.size()) * 1e3 / busy_ms
                  : 0.0,
              "1/s");
  report->Set("latency_p50_ms", Percentile(loop.all_ms, 0.50), "ms");
  report->Set("latency_p99_ms", Percentile(loop.all_ms, 0.99), "ms");
  report->Samples("latency_ms", loop.all_ms.size());
  if (!loop.swap_ms.empty()) {
    report->Set("swap_ms", Median(loop.swap_ms), "ms");
    report->Samples("swap_ms", loop.swap_ms.size());
  }
}

}  // namespace perfbench
