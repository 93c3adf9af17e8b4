// The paper-preset arms: one warm MatchEngine per paper preset over a dense
// pair, plus sparse CSLS + greedy over an HNSW candidate index. The study
// workload runs them as its closed loop; serve and fleet run the same arms
// briefly on their own pair so every workload reports every match_ms metric.
// Also what serve and fleet share: their query kinds and the solo-engine
// answers their responses must equal.
#ifndef PERFBENCH_ARMS_H_
#define PERFBENCH_ARMS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "index/candidate_index.h"
#include "la/workspace.h"
#include "matching/engine.h"
#include "matching/types.h"

namespace perfbench {

/// Arm names in report order: the 8 dense presets, then "csls-hnsw".
const std::vector<std::string>& ArmNames();
/// The 8 dense preset arm names.
const std::vector<std::string>& DensePresetArms();

/// Sizes and per-round repetition counts of a suite.
struct SuiteShape {
  PairShape dense;
  /// The pair the sparse arm indexes (the study's large-scale arm; serve and
  /// fleet reuse their dense shape).
  PairShape sparse;
  size_t candidates = 10;
  size_t ef_search = 64;
  size_t hnsw_links = 16;
  size_t hnsw_ef_construction = 64;
  /// Warm queries per arm per round. Fixed counts keep the query mix, and so
  /// the closed-loop latency percentiles, independent of speed.
  std::map<std::string, size_t> reps_per_round;
  /// For passes (InterleaveArms): an arm listed here runs in one pass of
  /// every `period`, staggered against the other arms of that period; every
  /// other arm runs in every pass.
  std::map<std::string, size_t> pass_period;
};

/// The arms' shape in serve and fleet: dense and sparse arms both over the
/// workload's own pair.
SuiteShape ServingArmsShape(const PairShape& pair, bool tiny);

/// Samples of one warm loop, as CPU times (ms) of the benchmark process: the
/// arms run while nothing else in it works, so a sample is the call's own
/// CPU time, which leaves out time the hypervisor stole from the vCPU.
struct LoopResult {
  std::map<std::string, std::vector<double>> arm_ms;
  /// Every query, in issue order.
  std::vector<double> all_ms;
  /// Study swap-equivalent (snapshot publish) samples, if a hook ran.
  std::vector<double> swap_ms;
};

class PresetSuite {
 public:
  /// Builds the engines over `dense` and the HNSW index + sparse engine over
  /// `sparse`. This is set-up work.
  static entmatcher::Result<std::unique_ptr<PresetSuite>> Create(
      Pair dense, Pair sparse, const SuiteShape& shape);

  PresetSuite(const PresetSuite&) = delete;
  PresetSuite& operator=(const PresetSuite&) = delete;

  /// Runs every arm once (the cold query) and keeps its answer as the
  /// reference every warm answer must equal.
  void Cold(Ledger* ledger);

  /// Closed loop, one caller: rounds of reps_per_round queries per arm until
  /// `budget_s` has passed and at least `min_rounds` rounds ran, appending
  /// the samples to `out`. `per_round` (optional) runs once per round and
  /// appends swap samples. Each warm answer is checked against the cold one.
  void WarmLoop(
      double budget_s, size_t min_rounds, Ledger* ledger, LoopResult* out,
      const std::function<void(std::vector<double>*)>& per_round = nullptr);

  /// Pass number `index`: one warm query of each arm pass_period schedules
  /// for it, appended to `out` and checked as in WarmLoop.
  void Pass(size_t index, Ledger* ledger, LoopResult* out);

  /// Traced decomposition: runs similarity, transform and decision from
  /// outside for every dense arm (and index fill, sparse transform, sparse
  /// decision for the sparse arm) `reps` times under spans, each next to one
  /// engine Match, and checks each staged answer — and the staged
  /// transformed scores — bit for bit against the engine's.
  void Staged(size_t reps, Ledger* ledger);

  /// Layer micro-measurements (matmul, similarity, column/row top-k, rank,
  /// snapshot build, HNSW collect + recall), each under spans.
  void Layers(size_t reps, Ledger* ledger);

  /// Per-layer metrics from the spans recorded by Staged/Layers.
  void ReportLayers(Report* report) const;

  /// Staged answers compared against the engine, and how many matched.
  size_t staged_checked() const { return staged_checked_; }
  size_t staged_identical() const { return staged_identical_; }

  double index_build_s() const { return index_build_s_; }
  double DInfAccuracy() const;
  const Pair& dense() const { return dense_; }

 private:
  PresetSuite() = default;

  entmatcher::MatchEngine& EngineOf(const std::string& arm);
  double RunArm(const std::string& arm, Ledger* ledger, uint64_t request);

  SuiteShape shape_;
  Pair dense_;
  Pair sparse_;
  std::unique_ptr<entmatcher::CandidateIndex> index_;
  std::map<std::string, std::unique_ptr<entmatcher::MatchEngine>> engines_;
  std::map<std::string, std::vector<int32_t>> cold_;
  std::map<std::string, size_t> workspace_peak_;
  double index_build_s_ = 0.0;
  double recall_ = 0.0;
  size_t staged_checked_ = 0;
  size_t staged_identical_ = 0;
  double collected_per_row_ = 0.0;
  /// Arena for the staged decomposition, separate from every engine's.
  entmatcher::Workspace staged_workspace_;
  uint64_t next_request_ = 1;
};

/// Records the suite's staged-decomposition check counts in the info line.
void ReportStagedCheck(const PresetSuite& suite, Report* report);

/// Sets the e2e metrics of one warm loop: match_ms.<arm> (each arm's 75th
/// percentile), and the closed-loop qps (queries per CPU second) and latency
/// percentiles over all of its queries.
void ReportLoop(const LoopResult& loop, Report* report, bool closed_loop_e2e);

/// A serving workload's measured phase: `segments` load segments of
/// `seconds / segments` each, with a short pass of the preset arms before
/// the first and after every one, so the arms' samples spread over the
/// phase instead of landing in a few bursts. On a shared host the fast arms
/// switched between two speeds about 1.5x apart from one second to the
/// next; a run's percentiles hold steady only when its samples come from
/// many such seconds. Returns the arms' samples.
LoopResult InterleaveArms(PresetSuite* suite, Ledger* ledger, double seconds,
                          size_t segments,
                          const std::function<void(double)>& segment);

// ---- Query kinds of the serving workloads -----------------------------------

/// One kind of query serve and fleet send: a preset, answered as a match
/// (topk 0) or as every row's top-k targets.
struct QueryKind {
  const char* name;
  entmatcher::AlgorithmPreset preset;
  size_t topk = 0;
};

/// Solo-engine answers per query kind for the two pair versions a serving
/// workload swaps between, flattened: an assignment's target of each source
/// row, or the row-major top-k target ids. Snapshot versions 1, 3, 5, ...
/// hold the first pair, versions 2, 4, ... the second.
struct VersionedAnswers {
  std::vector<std::vector<int32_t>> by_version[2];

  const std::vector<int32_t>& Of(uint64_t version, size_t kind) const {
    return by_version[version % 2 == 1 ? 0 : 1][kind];
  }
};

/// `kind`'s answer from `engine`, flattened as in VersionedAnswers.
entmatcher::Result<std::vector<int32_t>> SoloAnswer(
    entmatcher::MatchEngine* engine, const QueryKind& kind);

/// Every kind's solo answer over both pair versions.
entmatcher::Result<VersionedAnswers> SoloAnswers(
    const Pair versions[2], const std::vector<QueryKind>& kinds);

}  // namespace perfbench

#endif  // PERFBENCH_ARMS_H_
