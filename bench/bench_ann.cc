// ANN backend benchmark: what the HNSW graph buys over IVF blocking, and
// what the out-of-core store makes reachable.
//
//   1. Recall/cost sweep, IVF (nprobe) vs HNSW (ef), at two synthetic sizes
//      (15k and 100k rows, scaled by EM_BENCH_SCALE). Recall@c is measured
//      against the pair's identity alignment (source row i gold-matches
//      target row i — the synthetic generator's convention); cost is the
//      number of exact-rerank comparisons the probe proposes, the currency
//      every backend spends (CollectCandidates' contract).
//   2. Sparse-vs-dense crossover: warm CSLS+greedy wall-clock, dense vs the
//      HNSW-backed sparse path, across rising n — where the O(n*c) pipeline
//      overtakes the O(n^2) one.
//   3. (EM_BENCH_ANN_MMAP=1 only) The 1M-row out-of-core smoke: stream a
//      synthetic EMBF pair to disk, mmap both sides, build the HNSW index
//      over the borrowed matrix, and match end-to-end under a fixed
//      workspace budget. Reports wall-clock per stage, identity accuracy,
//      MemoryTracker peak, and peak RSS (getrusage). EM_BENCH_ANN_ROWS /
//      EM_BENCH_ANN_DIM / EM_BENCH_ANN_DIR / EM_BENCH_ANN_RSS_BUDGET_MB
//      tune the fixture, and EM_BENCH_ANN_M / _EFC / _EF / _CANDIDATES the
//      graph operating point (a 1M-node graph needs wider links than the
//      50k default). The CI job drives a 1M x 32d pair against a 512 MB
//      RSS budget.
//
// Writes BENCH_ann.json.
//
// Headline gates:
//   - HNSW reaches recall >= 0.98 at some swept ef, and does so spending
//     >= 2x fewer exact-rerank comparisons than the cheapest IVF config of
//     equal (>= 0.98) recall. Enforced at full scale on multi-core hosts;
//     smoke runs (EM_BENCH_SCALE < 1) and 1-core CI enforce only the
//     correctness gate (recall itself).
//   - The mmap section, when enabled, must match with identity accuracy
//     >= 0.95 and stay under the RSS budget when one is set.
//
// Usage:
//   ./bench_ann                        # full sweep
//   EM_BENCH_SCALE=0.2 ./bench_ann     # CI smoke
//   EM_BENCH_ANN_MMAP=1 ./bench_ann    # adds the out-of-core section

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/embf_synth.h"
#include "index/candidate_index.h"
#include "la/matrix_io.h"
#include "matching/engine.h"

namespace entmatcher {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kClusters = 32;
constexpr size_t kCandidates = 10;
constexpr double kRecallGate = 0.98;
constexpr double kComparisonAdvantageGate = 2.0;

/// Same construction as bench_index: targets from a mixture of Gaussians,
/// sources as noisy copies of their aligned targets.
void MakeClusteredPair(size_t rows, uint64_t seed, Matrix* src, Matrix* tgt) {
  Rng rng(seed);
  Matrix centers(kClusters, kDim);
  for (size_t c = 0; c < kClusters; ++c) {
    for (float& v : centers.Row(c)) v = static_cast<float>(rng.NextGaussian());
  }
  *tgt = Matrix(rows, kDim);
  *src = Matrix(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    const auto center = centers.Row(r % kClusters);
    auto t = tgt->Row(r);
    auto s = src->Row(r);
    for (size_t d = 0; d < kDim; ++d) {
      t[d] = center[d] + 0.25f * static_cast<float>(rng.NextGaussian());
      s[d] = t[d] + 0.1f * static_cast<float>(rng.NextGaussian());
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

struct SweepPoint {
  std::string backend;
  size_t n = 0;
  size_t knob = 0;         // nprobe (IVF) or ef (HNSW)
  double recall = 0.0;     // identity-alignment recall@c
  double comparisons = 0;  // exact-rerank comparisons per source row
  double millis = 0.0;     // one full sparse scoring pass
};

/// One (backend, knob) measurement: identity recall of the emitted entries,
/// probe cost in comparisons/row, and the wall-clock of the scoring pass.
SweepPoint MeasurePoint(const CandidateIndex& index, const Matrix& src,
                        const Matrix& tgt, const ProbeParams& params,
                        size_t knob) {
  const size_t n = src.rows();
  SweepPoint point;
  point.backend = CandidateBackendName(index.backend());
  point.n = n;
  point.knob = knob;

  const SimilarityCache cache =
      BuildSimilarityCache(src, tgt, SimilarityMetric::kCosine);
  const size_t stride = std::min(kCandidates, index.num_targets());
  SparseScores sparse =
      SparseScores::CreateOwned(n, index.num_targets(), n * stride);
  Timer timer;
  const Status filled = index.FillSparseScores(
      src, tgt, SimilarityMetric::kCosine, cache, kCandidates, params,
      &sparse);
  point.millis = timer.ElapsedMillis();
  if (!filled.ok()) {
    std::cerr << "FillSparseScores: " << filled.ToString() << "\n";
    std::abort();
  }

  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto cols = sparse.RowCols(i);
    hits += std::binary_search(cols.begin(), cols.end(),
                               static_cast<uint32_t>(i));
  }
  point.recall = static_cast<double>(hits) / static_cast<double>(n);

  // The probe stage alone: |CollectCandidates| per row is exactly the
  // number of exact dot products the rerank pays for that row.
  CandidateScratch scratch;
  std::vector<uint32_t> candidates;
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    candidates.clear();
    index.CollectCandidates(tgt, src.Row(i).data(), params, &scratch,
                            &candidates);
    total += candidates.size();
  }
  point.comparisons = static_cast<double>(total) / static_cast<double>(n);
  return point;
}

/// Records a sweep point's recall, probe cost and fill time; `knob` names
/// the backend's probe-width setting.
void ReportPoint(const SweepPoint& point, const char* knob,
                 bench::BenchReport* report) {
  const JsonValue::Object labels = {
      {"backend", point.backend}, {"n", point.n}, {knob, point.knob}};
  report->Metric("index", "recall", labels, point.recall, "ratio", "higher");
  report->Metric("index", "comparisons_per_row", labels, point.comparisons,
                 "count", "lower");
  report->Metric("index", "fill_ms", labels, point.millis, "ms", "lower");
}

}  // namespace
}  // namespace entmatcher

int main() {
  using namespace entmatcher;

  const double scale = bench::GlobalScale();
  const unsigned cores = bench::HardwareThreads();
  // Smoke runs and 1-core CI hosts check correctness (recall) only; the
  // cost-advantage and timing gates need the full-size sweep to be fair.
  const bool full_gates = scale >= 1.0 && cores > 1;

  bench::PrintBanner(
      "ANN backends — IVF vs HNSW recall/cost, and the out-of-core path",
      "Identity recall@" + std::to_string(kCandidates) +
          " vs exact-rerank comparisons across nprobe/ef, the sparse-vs-\n"
          "dense crossover, and (EM_BENCH_ANN_MMAP=1) the mmap 1M smoke.\n"
          "Gate: HNSW recall >= 0.98 at >= 2x fewer comparisons than IVF.");
  bench::BenchReport report("ann");
  report.Config("scale", scale);
  report.Config("dim", kDim);
  report.Config("candidates", kCandidates);

  // ---------------------------------------------------------------- sweep
  const std::vector<size_t> sweep_sizes = {
      std::max<size_t>(256, static_cast<size_t>(15000.0 * scale)),
      std::max<size_t>(512, static_cast<size_t>(100000.0 * scale))};
  const std::vector<size_t> probe_counts = {1, 2, 4, 8, 16};
  const std::vector<size_t> beam_widths = {16, 32, 64, 128};

  // Best (fewest comparisons) config per backend that clears the recall
  // gate, at the LARGEST size — the headline the JSON gates on.
  double ivf_cost_at_gate = 0.0;
  double hnsw_cost_at_gate = 0.0;
  double hnsw_best_recall = 0.0;

  for (size_t n : sweep_sizes) {
    Matrix src;
    Matrix tgt;
    MakeClusteredPair(n, /*seed=*/31, &src, &tgt);

    Result<CandidateIndex> ivf =
        CandidateIndex::Build(tgt, CandidateIndexOptions());
    CandidateIndexOptions hnsw_options;
    hnsw_options.backend = CandidateBackendKind::kHnsw;
    hnsw_options.hnsw_max_links = 16;
    hnsw_options.hnsw_ef_construction = 96;
    Timer hnsw_build_timer;
    Result<CandidateIndex> hnsw = CandidateIndex::Build(tgt, hnsw_options);
    const double hnsw_build_ms = hnsw_build_timer.ElapsedMillis();
    if (!ivf.ok() || !hnsw.ok()) {
      std::cerr << "index build failed at n=" << n << "\n";
      return 1;
    }
    std::cout << "n=" << n << ": IVF " << ivf->Stats().num_lists
              << " lists; HNSW " << hnsw->Stats().num_lists
              << " levels, built in " << FormatDouble(hnsw_build_ms, 0)
              << " ms\n";

    const bool largest = n == sweep_sizes.back();
    for (size_t nprobe : probe_counts) {
      ProbeParams params;
      params.nprobe = nprobe;
      SweepPoint point = MeasurePoint(*ivf, src, tgt, params, nprobe);
      ReportPoint(point, "nprobe", &report);
      std::cout << "  ivf  nprobe=" << nprobe << ": recall "
                << FormatDouble(point.recall, 3) << ", "
                << FormatDouble(point.comparisons, 1) << " cmp/row, "
                << FormatDouble(point.millis, 1) << " ms\n";
      if (largest && point.recall >= kRecallGate &&
          (ivf_cost_at_gate == 0.0 || point.comparisons < ivf_cost_at_gate)) {
        ivf_cost_at_gate = point.comparisons;
      }
    }
    for (size_t ef : beam_widths) {
      ProbeParams params;
      params.ef_search = ef;
      SweepPoint point = MeasurePoint(*hnsw, src, tgt, params, ef);
      ReportPoint(point, "ef", &report);
      std::cout << "  hnsw ef=" << ef << ": recall "
                << FormatDouble(point.recall, 3) << ", "
                << FormatDouble(point.comparisons, 1) << " cmp/row, "
                << FormatDouble(point.millis, 1) << " ms\n";
      if (largest) {
        hnsw_best_recall = std::max(hnsw_best_recall, point.recall);
        if (point.recall >= kRecallGate &&
            (hnsw_cost_at_gate == 0.0 ||
             point.comparisons < hnsw_cost_at_gate)) {
          hnsw_cost_at_gate = point.comparisons;
        }
      }
    }
  }
  const double advantage =
      (hnsw_cost_at_gate > 0.0 && ivf_cost_at_gate > 0.0)
          ? ivf_cost_at_gate / hnsw_cost_at_gate
          : 0.0;
  std::cout << "\nheadline at n=" << sweep_sizes.back() << ": HNSW "
            << (hnsw_cost_at_gate > 0.0
                    ? FormatDouble(hnsw_cost_at_gate, 1)
                    : std::string("-"))
            << " cmp/row vs IVF "
            << (ivf_cost_at_gate > 0.0 ? FormatDouble(ivf_cost_at_gate, 1)
                                       : std::string("-"))
            << " cmp/row at recall >= " << kRecallGate << " ("
            << FormatDouble(advantage, 2) << "x advantage)\n";
  report.Metric("index", "comparison_advantage",
                {{"n", sweep_sizes.back()}, {"backends", "hnsw vs ivf"}},
                advantage, "x", "higher");

  // ------------------------------------------------------------ crossover
  std::cout << "\nsparse-vs-dense crossover (CSLS+greedy, warm):\n";
  const std::vector<size_t> crossover_sizes = {
      std::max<size_t>(128, static_cast<size_t>(1000.0 * scale)),
      std::max<size_t>(192, static_cast<size_t>(2000.0 * scale)),
      std::max<size_t>(256, static_cast<size_t>(4000.0 * scale)),
      std::max<size_t>(384, static_cast<size_t>(8000.0 * scale))};
  size_t crossover_n = 0;
  for (size_t n : crossover_sizes) {
    Matrix src;
    Matrix tgt;
    MakeClusteredPair(n, /*seed=*/47, &src, &tgt);
    CandidateIndexOptions hnsw_options;
    hnsw_options.backend = CandidateBackendKind::kHnsw;
    hnsw_options.hnsw_max_links = 16;
    hnsw_options.hnsw_ef_construction = 96;
    Result<CandidateIndex> index = CandidateIndex::Build(tgt, hnsw_options);
    if (!index.ok()) {
      std::cerr << "crossover index build failed at n=" << n << "\n";
      return 1;
    }
    const MatchOptions dense_options = MakePreset(AlgorithmPreset::kCsls);
    MatchOptions sparse_options = dense_options;
    sparse_options.candidate_index = &*index;
    sparse_options.num_candidates = kCandidates;
    sparse_options.index_ef = 64;

    Result<MatchEngine> dense_engine =
        MatchEngine::Create(src, tgt, dense_options);
    Result<MatchEngine> sparse_engine =
        MatchEngine::Create(src, tgt, sparse_options);
    if (!dense_engine.ok() || !sparse_engine.ok() ||
        !dense_engine->Match().ok() || !sparse_engine->Match().ok()) {
      std::cerr << "crossover warmup failed at n=" << n << "\n";
      return 1;
    }
    Timer dense_timer;
    if (!dense_engine->Match().ok()) return 1;
    const double dense_ms = dense_timer.ElapsedMillis();
    Timer sparse_timer;
    if (!sparse_engine->Match().ok()) return 1;
    const double sparse_ms = sparse_timer.ElapsedMillis();
    std::cout << "  n=" << n << ": dense " << FormatDouble(dense_ms, 1)
              << " ms, sparse " << FormatDouble(sparse_ms, 1) << " ms\n";
    report.Metric("engine", "match_ms",
                  {{"preset", "CSLS"}, {"n", n}, {"path", "dense"}}, dense_ms,
                  "ms", "lower");
    report.Metric("engine", "match_ms",
                  {{"preset", "CSLS"}, {"n", n}, {"path", "sparse hnsw"}},
                  sparse_ms, "ms", "lower");
    if (crossover_n == 0 && sparse_ms < dense_ms) crossover_n = n;
  }
  if (crossover_n != 0) {
    std::cout << "  sparse overtakes dense at n=" << crossover_n << "\n";
    report.Metric("engine", "sparse_overtakes_dense_at",
                  {{"preset", "CSLS"}, {"path", "sparse hnsw"}},
                  static_cast<double>(crossover_n), "rows", "lower");
  }

  // ----------------------------------------------------------- mmap smoke
  const char* mmap_env = std::getenv("EM_BENCH_ANN_MMAP");
  const bool run_mmap = mmap_env != nullptr && std::string(mmap_env) == "1";
  const size_t rss_budget_mb = EnvSize("EM_BENCH_ANN_RSS_BUDGET_MB", 0);
  report.Config("mmap", run_mmap);
  if (run_mmap) {
    const size_t rows = EnvSize("EM_BENCH_ANN_ROWS", 1000000);
    const size_t dim = EnvSize("EM_BENCH_ANN_DIM", 64);
    // Graph knobs scale with the node count: a 1M-node graph needs wider
    // links and a deeper construction beam than the 50k smoke to hold
    // recall. Overridable so CI jobs can pin their own operating point.
    const size_t max_links = EnvSize("EM_BENCH_ANN_M", 8);
    const size_t ef_construction = EnvSize("EM_BENCH_ANN_EFC", 32);
    const size_t ef_search = EnvSize("EM_BENCH_ANN_EF", 64);
    const size_t candidates = EnvSize("EM_BENCH_ANN_CANDIDATES", 8);
    report.Config("mmap_rows", rows);
    report.Config("mmap_dim", dim);
    report.Config("mmap_max_links", max_links);
    report.Config("mmap_ef_construction", ef_construction);
    report.Config("mmap_ef_search", ef_search);
    report.Config("mmap_candidates", candidates);
    report.Config("mmap_rss_budget_mb", rss_budget_mb);
    const char* dir_env = std::getenv("EM_BENCH_ANN_DIR");
    const std::string prefix =
        std::string(dir_env != nullptr ? dir_env : "/tmp") + "/bench_ann";
    const std::string src_path = prefix + ".src.embf";
    const std::string tgt_path = prefix + ".tgt.embf";

    std::cout << "\nout-of-core smoke: " << rows << " x " << dim
              << "d pair under mmap\n";
    EmbfSynthOptions synth;
    synth.rows = rows;
    synth.dim = dim;
    // Constant per-cluster population (~64 rows): identity accuracy is set
    // by cluster density, so a fixed cluster count would make the 1M run an
    // unfairly harder problem than the 50k one.
    synth.clusters = std::max<size_t>(256, rows / 64);
    synth.noise = 0.05;
    Timer synth_timer;
    const Status synthed = SynthEmbfPair(synth, src_path, tgt_path);
    const double synth_s = synth_timer.ElapsedSeconds();
    if (!synthed.ok()) {
      std::cerr << "synth: " << synthed.ToString() << "\n";
      return 1;
    }

    MemoryTracker::Global().ResetPeak();
    double build_s = 0.0;
    double match_s = 0.0;
    double identity = 0.0;
    {
      // ReadMatrixBinary maps the EMBF files: both sides are borrowed views
      // over the page cache, never heap copies.
      Result<Matrix> src = ReadMatrixBinary(src_path);
      Result<Matrix> tgt = ReadMatrixBinary(tgt_path);
      if (!src.ok() || !tgt.ok()) {
        std::cerr << "read failed: "
                  << (src.ok() ? tgt.status() : src.status()).ToString()
                  << "\n";
        return 1;
      }
      CandidateIndexOptions hnsw_options;
      hnsw_options.backend = CandidateBackendKind::kHnsw;
      hnsw_options.hnsw_max_links = max_links;
      hnsw_options.hnsw_ef_construction = ef_construction;
      Timer build_timer;
      Result<CandidateIndex> index =
          CandidateIndex::Build(*tgt, hnsw_options);
      build_s = build_timer.ElapsedSeconds();
      if (!index.ok()) {
        std::cerr << "1M HNSW build: " << index.status().ToString() << "\n";
        return 1;
      }

      MatchOptions options = MakePreset(AlgorithmPreset::kCsls);
      options.candidate_index = &*index;
      options.num_candidates = candidates;
      options.index_ef = ef_search;
      // The fixed workspace budget the acceptance criterion names: scratch
      // for the whole 1M-row match must fit in 256 MB of tracked arena.
      options.workspace_budget_bytes = 256ull << 20;
      Timer match_timer;
      Result<MatchEngine> engine = MatchEngine::Create(
          std::move(src).value(), std::move(tgt).value(), options);
      if (!engine.ok()) {
        std::cerr << "1M engine: " << engine.status().ToString() << "\n";
        return 1;
      }
      Result<Assignment> assignment = engine->Match();
      match_s = match_timer.ElapsedSeconds();
      if (!assignment.ok()) {
        std::cerr << "1M match: " << assignment.status().ToString() << "\n";
        return 1;
      }
      size_t hits = 0;
      for (size_t i = 0; i < rows; ++i) {
        hits += assignment->target_of_source[i] == static_cast<int32_t>(i);
      }
      identity = static_cast<double>(hits) / static_cast<double>(rows);
    }
    std::remove(src_path.c_str());
    std::remove(tgt_path.c_str());
    const size_t tracked_peak = MemoryTracker::Global().stats().peak_bytes;
    const double peak_rss_mb = PeakRssMb();

    std::cout << "  synth " << FormatDouble(synth_s, 1) << " s, build "
              << FormatDouble(build_s, 1) << " s, match "
              << FormatDouble(match_s, 1) << " s\n"
              << "  identity acc " << FormatDouble(identity, 4)
              << ", tracked peak " << FormatBytes(tracked_peak)
              << ", peak RSS " << FormatDouble(peak_rss_mb, 0) << " MB\n";
    const JsonValue::Object labels = {{"preset", "CSLS"},
                                      {"path", "mmap sparse hnsw"}};
    report.Metric("engine", "synth_s", labels, synth_s, "s", "lower");
    report.Metric("index", "build_s", labels, build_s, "s", "lower");
    report.Metric("engine", "match_s", labels, match_s, "s", "lower");
    report.Metric("engine", "identity_accuracy", labels, identity, "ratio",
                  "higher");
    report.Metric("engine", "tracked_peak_bytes", labels,
                  static_cast<double>(tracked_peak), "B", "lower");
    report.Metric("engine", "peak_rss_mb", labels, peak_rss_mb, "MB",
                  "lower");
    report.Gate("mmap_identity_accuracy", identity >= 0.95,
                "identity accuracy " + FormatDouble(identity, 4) +
                    ", need >= 0.95");
    const std::string rss_detail =
        "peak RSS " + FormatDouble(peak_rss_mb, 0) + " MB";
    if (rss_budget_mb > 0) {
      report.Gate("mmap_rss_budget",
                  peak_rss_mb <= static_cast<double>(rss_budget_mb),
                  rss_detail + ", budget " + std::to_string(rss_budget_mb) +
                      " MB");
    } else {
      report.SkipGate("mmap_rss_budget",
                      rss_detail + "; EM_BENCH_ANN_RSS_BUDGET_MB unset");
    }
  } else {
    report.SkipGate("mmap_identity_accuracy", "EM_BENCH_ANN_MMAP unset");
    report.SkipGate("mmap_rss_budget", "EM_BENCH_ANN_MMAP unset");
  }

  // ----------------------------------------------------------------- gates
  report.Gate("hnsw_recall", hnsw_best_recall >= kRecallGate,
              "best HNSW recall " + FormatDouble(hnsw_best_recall, 3) +
                  " at n=" + std::to_string(sweep_sizes.back()) +
                  ", need >= " + FormatDouble(kRecallGate, 2));
  const std::string advantage_detail =
      ivf_cost_at_gate == 0.0
          ? "no IVF config reached recall " + FormatDouble(kRecallGate, 2)
          : "HNSW spends " + FormatDouble(advantage, 2) +
                "x fewer comparisons than IVF, need >= " +
                FormatDouble(kComparisonAdvantageGate, 1) + "x";
  if (full_gates) {
    report.Gate("hnsw_comparison_advantage",
                ivf_cost_at_gate != 0.0 &&
                    advantage >= kComparisonAdvantageGate,
                advantage_detail);
  } else {
    report.SkipGate("hnsw_comparison_advantage",
                    advantage_detail + "; needs scale >= 1 and > 1 core, ran "
                                       "at scale " +
                        FormatDouble(scale, 2) + " on " +
                        std::to_string(cores) + " core(s)");
  }
  return report.Finish();
}
