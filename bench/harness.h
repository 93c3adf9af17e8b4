#ifndef ENTMATCHER_BENCH_HARNESS_H_
#define ENTMATCHER_BENCH_HARNESS_H_

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "datagen/benchmarks.h"
#include "embedding/provider.h"
#include "eval/experiment.h"
#include "la/kernels/dispatch.h"

namespace entmatcher::bench {

/// Prints the standard banner for a table/figure reproduction harness.
inline void PrintBanner(const std::string& title, const std::string& detail) {
  std::cout << "==================================================================\n"
            << title << "\n"
            << detail << "\n"
            << "==================================================================\n";
}

/// Formats an F1/score cell.
inline std::string F3(double v) { return FormatDouble(v, 3); }

/// Formats the paper's "Imp." column: mean relative improvement over DInf.
inline std::string Improvement(const std::vector<double>& f1s,
                               const std::vector<double>& dinf_f1s) {
  if (f1s.size() != dinf_f1s.size() || f1s.empty()) return "";
  double total = 0.0;
  for (size_t i = 0; i < f1s.size(); ++i) {
    if (dinf_f1s[i] <= 0.0) return "";
    total += (f1s[i] - dinf_f1s[i]) / dinf_f1s[i];
  }
  return FormatDouble(100.0 * total / f1s.size(), 1) + "%";
}

/// Generates a dataset (with the given global scale multiplier) or dies.
inline KgPairDataset MustGenerate(const std::string& pair, double scale) {
  auto d = GenerateDataset(pair, scale);
  if (!d.ok()) {
    std::cerr << "dataset " << pair << ": " << d.status().ToString() << "\n";
    std::abort();
  }
  return std::move(d).value();
}

/// Computes embeddings or dies.
inline EmbeddingPair MustEmbed(const KgPairDataset& dataset,
                               EmbeddingSetting setting) {
  auto e = ComputeEmbeddings(dataset, setting);
  if (!e.ok()) {
    std::cerr << "embeddings for " << dataset.name << ": "
              << e.status().ToString() << "\n";
    std::abort();
  }
  return std::move(e).value();
}

/// Runs one preset or dies.
inline ExperimentResult MustRun(const KgPairDataset& dataset,
                                const EmbeddingPair& embeddings,
                                AlgorithmPreset preset) {
  auto r = RunExperiment(dataset, embeddings, preset);
  if (!r.ok()) {
    std::cerr << PresetName(preset) << " on " << dataset.name << ": "
              << r.status().ToString() << "\n";
    std::abort();
  }
  return std::move(r).value();
}

/// Reads the EM_BENCH_SCALE env var (default 1.0) so the whole suite can be
/// shrunk for smoke runs (e.g. EM_BENCH_SCALE=0.2 ./bench_table4).
inline double GlobalScale() {
  const char* env = std::getenv("EM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// std::thread::hardware_concurrency(), at least 1.
inline unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The machine-readable record of one bench run, written as
/// BENCH_<bench>.json in the working directory. Every bench that writes
/// JSON writes this one schema:
///
///   {"bench":   "simd",
///    "config":  {<the run's settings>},
///    "host":    {"hardware_threads": 4, "kernel_tier": "avx512",
///                "cpu": "sse4.2 avx avx2 ..."},
///    "metrics": [{"layer": "kernel", "metric": "throughput",
///                 "labels": {"op": "sum", "tier": "avx2"},
///                 "value": 41.2, "unit": "GB/s", "better": "higher"}, ...],
///    "gates":   [{"name": "...", "result": "pass" | "fail" | "skipped",
///                 "detail": "..."}, ...]}
///
/// `layer` names what a number describes: kernel, index, engine, server,
/// router or fleet. A gate this host cannot judge (a speed gate on too few cores, a
/// section the run left out) is "skipped", never "pass". The host fields
/// are read when the report is made, before any bench switches tiers.
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {
    host_["hardware_threads"] = static_cast<uint64_t>(HardwareThreads());
    host_["kernel_tier"] = KernelTierName(ActiveKernelTier());
    host_["cpu"] = DetectedCpuFeatures();
  }

  /// Records one setting of the run.
  void Config(const std::string& key, JsonValue value) {
    config_[key] = std::move(value);
  }

  /// Records one measured number; `better` is "higher" or "lower".
  void Metric(const std::string& layer, const std::string& metric,
              JsonValue::Object labels, double value, const std::string& unit,
              const std::string& better) {
    metrics_.push_back(JsonValue::Object{{"layer", layer},
                                         {"metric", metric},
                                         {"labels", std::move(labels)},
                                         {"value", value},
                                         {"unit", unit},
                                         {"better", better}});
  }

  /// Records a judged gate and prints it, to stderr when it fails.
  void Gate(const std::string& name, bool passed, const std::string& detail) {
    AddGate(name, passed ? "pass" : "fail", detail);
    (passed ? std::cout : std::cerr)
        << (passed ? "gate " : "FATAL: gate ") << name << ": "
        << (passed ? "pass" : "FAIL") << " (" << detail << ")\n";
    failed_ = failed_ || !passed;
  }

  /// Records a gate this run cannot judge, with the reason.
  void SkipGate(const std::string& name, const std::string& detail) {
    AddGate(name, "skipped", detail);
    std::cout << "gate " << name << ": skipped (" << detail << ")\n";
  }

  /// Writes BENCH_<bench>.json and returns the process exit code: 1 when a
  /// gate failed, else 0.
  int Finish() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    const JsonValue doc(JsonValue::Object{{"bench", bench_},
                                          {"config", config_},
                                          {"host", host_},
                                          {"metrics", metrics_},
                                          {"gates", gates_}});
    std::ofstream(path) << doc.Dump() << "\n";
    std::cout << "wrote " << path << " (" << metrics_.size() << " metrics, "
              << gates_.size() << " gates)\n";
    return failed_ ? 1 : 0;
  }

 private:
  void AddGate(const std::string& name, const char* result,
               const std::string& detail) {
    gates_.push_back(JsonValue::Object{
        {"name", name}, {"result", result}, {"detail", detail}});
  }

  std::string bench_;
  JsonValue::Object config_;
  JsonValue::Object host_;
  JsonValue::Array metrics_;
  JsonValue::Array gates_;
  bool failed_ = false;
};

}  // namespace entmatcher::bench

#endif  // ENTMATCHER_BENCH_HARNESS_H_
