// study: the paper's 1-to-1 and large-scale settings as a closed loop with one
// caller. One warm MatchEngine per preset runs DInf, CSLS, RInf, RInf-wr,
// RInf-pb, Sink., Hun. and SMat over a dense pair; a large-scale arm runs
// sparse CSLS + greedy over an HNSW index. No queue, socket or router.
#include <memory>
#include <utility>

#include "arms.h"
#include "common/thread_pool.h"
#include "matching/snapshot.h"
#include "workloads.h"

namespace perfbench {

using entmatcher::Matrix;
using entmatcher::Status;

namespace {

// Two kernel threads: on a shared 4-core host, wider parallel regions wait
// on whichever core is interrupted, which made the 4-thread medians drift
// about twice as much run to run.
constexpr size_t kStudyThreads = 2;
// Set-ups measured: each builds an HNSW index over the large pair.
constexpr size_t kSetups = 3;
// Snapshot publishes per round: each is well under a millisecond.
constexpr size_t kPublishesPerRound = 5;

SuiteShape StudyShape(const RunConfig& config) {
  SuiteShape shape;
  shape.dense.rows = config.tiny() ? 300 : 2000;
  shape.sparse.rows = config.tiny() ? 1500 : 20000;
  for (PairShape* pair : {&shape.dense, &shape.sparse}) {
    pair->dim = 64;
    pair->clusters = 64;
    pair->spread = 0.25;
    pair->noise = 0.8;  // DInf accuracy ~0.64: the DBP15K range
  }
  shape.candidates = 10;
  shape.ef_search = 64;
  shape.hnsw_links = 16;
  shape.hnsw_ef_construction = 64;
  if (!config.tiny()) {
    // 15 fast queries and 9 slower ones per round, so the mix's median
    // always falls among the fast presets and its p99 on the slowest.
    shape.reps_per_round = {{"dinf", 5},    {"csls", 5},     {"rinf-wr", 5},
                            {"rinf-pb", 2}, {"hungarian", 3}};
  }
  return shape;
}

}  // namespace

Status RunStudy(const RunConfig& config, Report* report, Ledger* ledger,
                std::string* /*skipped*/) {
  entmatcher::SetNumThreads(kStudyThreads);
  report->InfoNum("em_num_threads", static_cast<double>(kStudyThreads));
  const SuiteShape shape = StudyShape(config);
  report->InfoNum("dense_rows", static_cast<double>(shape.dense.rows));
  report->InfoNum("sparse_rows", static_cast<double>(shape.sparse.rows));
  report->InfoNum("dim", static_cast<double>(shape.dense.dim));
  report->InfoNum("noise", shape.dense.noise);

  std::unique_ptr<PresetSuite> suite;
  EM_RETURN_NOT_OK(MeasureSetup(config, kSetups, [&]() -> Status {
    suite.reset();
    EM_ASSIGN_OR_RETURN(
        Pair dense, MakePair(config.work_dir, "study-dense", shape.dense,
                             DeriveSeed(config.seed, 1)));
    EM_ASSIGN_OR_RETURN(
        Pair sparse, MakePair(config.work_dir, "study-large", shape.sparse,
                              DeriveSeed(config.seed, 2)));
    EM_ASSIGN_OR_RETURN(suite, PresetSuite::Create(std::move(dense),
                                                   std::move(sparse), shape));
    return Status::OK();
  }, report));

  suite->Cold(ledger);
  report->InfoNum("dinf_accuracy", suite->DInfAccuracy());
  report->InfoNum("index_build_s", suite->index_build_s());

  // The study's swap: what SwapPair does for a pair this size — build a
  // snapshot of fresh copies, warm its cosine cache, publish it.
  entmatcher::SnapshotRegistry registry;
  auto publish = [&](std::vector<double>* swap_ms) {
    for (size_t i = 0; i < kPublishesPerRound; ++i) {
      Matrix source(suite->dense().source);
      Matrix target(suite->dense().target);
      Span span("matching.publish");
      const double cpu_start_ms = SelfCpuMs();
      auto snapshot = entmatcher::PairSnapshot::Build(std::move(source),
                                                      std::move(target));
      if (!snapshot.ok()) {
        ledger->Fail("snapshot build: " + snapshot.status().ToString());
        continue;
      }
      (*snapshot)->EnsureCache(entmatcher::SimilarityMetric::kCosine);
      auto published = registry.Publish("study", std::move(snapshot).value());
      swap_ms->push_back(SelfCpuMs() - cpu_start_ms);
      ledger->Check(published.ok(), "snapshot publish failed");
    }
  };

  const size_t min_rounds = 3;
  MeasurePhases(config, 1, [&](double seconds, size_t, Report* into) {
    LoopResult loop;
    suite->WarmLoop(seconds, min_rounds, ledger, &loop, publish);
    ReportLoop(loop, into, /*closed_loop_e2e=*/true);
    into->Set("peak_rss_mb", SelfPeakRssMb(), "MB");
  }, report);
  if (!config.trace) return Status::OK();

  // Traced run: the staged decomposition and the layer micro-measurements.
  suite->Staged(config.tiny() ? 1 : 2, ledger);
  suite->Layers(config.tiny() ? 2 : 5, ledger);
  suite->ReportLayers(report);
  ReportStagedCheck(*suite, report);
  return Status::OK();
}

}  // namespace perfbench
