// Candidate-index benchmark: measures what the IVF blocking + sparse score
// pipeline buys and what it costs.
//
//   1. Recall@c sweep: average fraction of the exact dense top-c targets
//      that survive into the candidate list, across c x nprobe. The headline
//      configuration must reach >= 0.95 recall — an index that drops the
//      true matches is not an optimization, it is a different (worse)
//      algorithm. The synthetic pair is clustered (mixture of Gaussians)
//      with sources as noisy copies of targets, the regime entity
//      embeddings actually live in; on structureless iid-Gaussian data IVF
//      blocking has nothing to exploit and recall degrades to nprobe/L.
//   2. Sparse vs dense CSLS+greedy on the large synthetic pair: warm
//      wall-clock ratio and peak-workspace ratio (arena high-water). The
//      sparse path must actually use less workspace; a regression here is a
//      fatal failure.
//
// Writes BENCH_index.json.
//
// Usage:
//   ./bench_index                     # sizes scaled by EM_BENCH_SCALE
//   EM_BENCH_SCALE=0.1 ./bench_index  # CI smoke run

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/candidate_index.h"
#include "matching/engine.h"

namespace entmatcher {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kClusters = 32;
constexpr double kRecallGate = 0.95;

/// Targets drawn from a mixture of Gaussians (cluster scale 1, within-cluster
/// scale 0.25), sources as noisy copies of their aligned targets — the shape
/// of real entity-embedding spaces after transform alignment.
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

/// Exact top-c target columns per source row from the dense raw-similarity
/// matrix, ordered by (score desc, column asc) — the same total order the
/// rerank uses, so recall compares like against like.
std::vector<std::vector<uint32_t>> ExactTopC(const Matrix& dense, size_t c) {
  std::vector<std::vector<uint32_t>> top(dense.rows());
  std::vector<uint32_t> order(dense.cols());
  for (size_t r = 0; r < dense.rows(); ++r) {
    const auto row = dense.Row(r);
    for (size_t j = 0; j < order.size(); ++j) order[j] = static_cast<uint32_t>(j);
    const size_t keep = std::min(c, order.size());
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&row](uint32_t a, uint32_t b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;
                      });
    top[r].assign(order.begin(), order.begin() + keep);
  }
  return top;
}

struct RecallPoint {
  size_t candidates = 0;
  size_t nprobe = 0;
  double recall = 0.0;
};

}  // namespace
}  // namespace entmatcher

int main() {
  using namespace entmatcher;

  const double scale = bench::GlobalScale();
  const size_t n = std::max<size_t>(64, static_cast<size_t>(3000.0 * scale));

  bench::PrintBanner(
      "Candidate index — recall@c and the sparse pipeline's cost profile",
      "IVF blocking over the large synthetic pair: recall@c across c x\n"
      "nprobe, then sparse vs dense CSLS+greedy wall-clock and peak\n"
      "workspace. Headline recall must reach 0.95.");
  bench::BenchReport report("index");
  report.Config("rows", n);
  report.Config("dim", kDim);
  report.Config("clusters", kClusters);

  Matrix src;
  Matrix tgt;
  MakeClusteredPair(n, /*seed=*/31, &src, &tgt);

  Result<CandidateIndex> index =
      CandidateIndex::Build(tgt, CandidateIndexOptions());
  if (!index.ok()) {
    std::cerr << "index build: " << index.status().ToString() << "\n";
    return 1;
  }
  const CandidateListStats list_stats = index->Stats();
  std::cout << "index: " << list_stats.num_lists << " lists over " << n
            << " targets (list sizes " << list_stats.min_list_size << " / "
            << FormatDouble(list_stats.mean_list_size, 1) << " / "
            << list_stats.max_list_size << ")\n\n";
  report.Config("num_lists", list_stats.num_lists);

  // Ground truth for recall: the exact dense top-c targets per source row.
  Result<MatchEngine> engine =
      MatchEngine::Create(src, tgt, MakePreset(AlgorithmPreset::kDInf));
  if (!engine.ok()) {
    std::cerr << "engine: " << engine.status().ToString() << "\n";
    return 1;
  }
  Result<Matrix> dense_raw =
      engine->TransformedScores(MakePreset(AlgorithmPreset::kDInf));
  if (!dense_raw.ok()) {
    std::cerr << "dense scores: " << dense_raw.status().ToString() << "\n";
    return 1;
  }

  std::vector<size_t> candidate_widths = {8, 32, 128};
  std::vector<size_t> probe_counts = {1, 2, 4, 8};
  for (size_t& c : candidate_widths) c = std::min(c, n);
  for (size_t& p : probe_counts) p = std::min(p, index->num_lists());

  std::vector<RecallPoint> sweep;
  for (size_t c : candidate_widths) {
    const std::vector<std::vector<uint32_t>> truth = ExactTopC(*dense_raw, c);
    for (size_t nprobe : probe_counts) {
      MatchOptions options = MakePreset(AlgorithmPreset::kDInf);
      options.candidate_index = &*index;
      options.num_candidates = c;
      options.index_nprobe = nprobe;
      Result<MatchEngine::ScoredBatch> batch = engine->BeginBatch(options);
      if (!batch.ok()) {
        std::cerr << "sparse batch c=" << c << " nprobe=" << nprobe << ": "
                  << batch.status().ToString() << "\n";
        return 1;
      }
      const SparseScores& sparse = batch->sparse_scores();
      size_t hits = 0;
      size_t wanted = 0;
      for (size_t i = 0; i < n; ++i) {
        const auto cols = sparse.RowCols(i);
        wanted += truth[i].size();
        for (uint32_t want : truth[i]) {
          // Candidate columns are ascending per row (CSR invariant).
          hits += std::binary_search(cols.begin(), cols.end(), want);
        }
      }
      RecallPoint point;
      point.candidates = c;
      point.nprobe = nprobe;
      point.recall = static_cast<double>(hits) / static_cast<double>(wanted);
      sweep.push_back(point);
      report.Metric("index", "recall",
                    {{"backend", "ivf"}, {"candidates", c}, {"nprobe", nprobe}},
                    point.recall, "ratio", "higher");
      std::cout << "recall@" << c << " (nprobe=" << nprobe
                << "): " << FormatDouble(point.recall, 3) << "\n";
    }
  }
  // Headline: the matcher-realistic configuration — the middle candidate
  // width at the most probes. c=128 exists in the sweep to show where deep
  // top-c coverage decays; greedy/1-to-1 matching only needs the head of
  // each row's ranking to survive.
  const size_t headline_c = candidate_widths[candidate_widths.size() / 2];
  RecallPoint headline;
  for (const RecallPoint& point : sweep) {
    if (point.candidates == headline_c && point.nprobe == probe_counts.back()) {
      headline = point;
    }
  }

  // Sparse vs dense CSLS+greedy, warm (second query) timings so both sides
  // run on recycled arena buffers.
  const MatchOptions dense_options = MakePreset(AlgorithmPreset::kCsls);
  MatchOptions sparse_options = dense_options;
  sparse_options.candidate_index = &*index;
  sparse_options.num_candidates = headline.candidates;
  sparse_options.index_nprobe = headline.nprobe;

  Result<MatchEngine> dense_engine =
      MatchEngine::Create(src, tgt, dense_options);
  Result<MatchEngine> sparse_engine =
      MatchEngine::Create(src, tgt, sparse_options);
  if (!dense_engine.ok() || !sparse_engine.ok()) {
    std::cerr << "CSLS engines failed to create\n";
    return 1;
  }
  if (!dense_engine->Match().ok() || !sparse_engine->Match().ok()) {
    std::cerr << "CSLS warmup failed\n";
    return 1;
  }
  Timer dense_timer;
  Result<Assignment> dense_run = dense_engine->Match();
  const double dense_seconds = dense_timer.ElapsedSeconds();
  Timer sparse_timer;
  Result<Assignment> sparse_run = sparse_engine->Match();
  const double sparse_seconds = sparse_timer.ElapsedSeconds();
  if (!dense_run.ok() || !sparse_run.ok()) {
    std::cerr << "CSLS measured runs failed\n";
    return 1;
  }
  const size_t dense_peak = dense_engine->workspace().high_water_bytes();
  const size_t sparse_peak = sparse_engine->workspace().high_water_bytes();
  const double time_ratio =
      dense_seconds > 0.0 ? sparse_seconds / dense_seconds : 0.0;
  const double peak_ratio =
      dense_peak > 0 ? static_cast<double>(sparse_peak) /
                           static_cast<double>(dense_peak)
                     : 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < n; ++i) {
    agree += (dense_run->target_of_source[i] == sparse_run->target_of_source[i]);
  }
  const auto report_path = [&report](const char* path, double seconds,
                                     size_t peak) {
    const JsonValue::Object labels = {{"preset", "CSLS"}, {"path", path}};
    report.Metric("engine", "match_ms", labels, seconds * 1e3, "ms", "lower");
    report.Metric("engine", "peak_workspace_bytes", labels,
                  static_cast<double>(peak), "B", "lower");
  };
  report_path("dense", dense_seconds, dense_peak);
  report_path("sparse", sparse_seconds, sparse_peak);
  report.Metric("engine", "assignment_agreement",
                {{"preset", "CSLS"}, {"path", "sparse vs dense"}},
                static_cast<double>(agree) / static_cast<double>(n), "ratio",
                "higher");

  std::cout << "\nCSLS+greedy at n=" << n << ", c=" << headline.candidates
            << ", nprobe=" << headline.nprobe << ":\n"
            << "  dense:  " << FormatDouble(dense_seconds * 1e3, 1) << " ms, "
            << FormatBytes(dense_peak) << " peak workspace\n"
            << "  sparse: " << FormatDouble(sparse_seconds * 1e3, 1)
            << " ms, " << FormatBytes(sparse_peak) << " peak workspace\n"
            << "  ratios: time " << FormatDouble(time_ratio, 3) << "x, peak "
            << FormatDouble(peak_ratio, 3) << "x, assignments agree on "
            << agree << "/" << n << " rows\n";

  report.Gate("headline_recall", headline.recall >= kRecallGate,
              "recall@" + std::to_string(headline.candidates) + " (nprobe=" +
                  std::to_string(headline.nprobe) + ") = " +
                  FormatDouble(headline.recall, 3) + ", need >= " +
                  FormatDouble(kRecallGate, 2));
  report.Gate("sparse_peak_below_dense", sparse_peak < dense_peak,
              "sparse " + std::to_string(sparse_peak) + " B vs dense " +
                  std::to_string(dense_peak) + " B");
  return report.Finish();
}
