// Shared infrastructure of the repository benchmark: run configuration,
// the in-memory span tracer, sample statistics, the metric report, the
// correctness ledger, seeded input generation and process accounting.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark) or "tiny" (the self-test: small inputs, short
  /// phases, same code paths).
  std::string scale = "full";
  /// Directory for the run's scratch files (inputs, sockets, trace), inside
  /// the checkout. Relative, so unix socket paths stay short.
  std::string work_dir;
  /// The shard binary the fleet workload forks.
  std::string cli_path;

  bool tiny() const { return scale == "tiny"; }
};

// ---- Tracing ---------------------------------------------------------------

/// One recorded span: a named interval, the span that caused it, and the
/// request it belongs to (0 = none).
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
  uint64_t thread = 0;
};

/// Process-wide span store. Spans are kept in memory and written out once,
/// when the run ends. Recording is a no-op while disabled, so the untraced
/// mode pays two clock reads per span and nothing else.
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span when tracing is enabled. `id` 0 allocates a
  /// fresh one.
  void Record(const std::string& name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent = 0,
                  uint64_t request = 0, uint64_t id = 0);

  /// Durations (ms) of every recorded span named `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  size_t size() const;

  /// Writes every span as a Chrome trace-event JSON document.
  entmatcher::Status WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around a call into one layer. Nested spans on one thread pick
/// up their parent automatically. Close() ends the span early and returns its
/// duration, which is how the benchmark times the call whether or not
/// tracing is on.
class Span {
 public:
  explicit Span(std::string name, uint64_t request = 0);
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double Close();

 private:
  std::string name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  Clock::time_point start_;
  double elapsed_ms_ = -1.0;
};

// ---- Statistics --------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);

// ---- Report ------------------------------------------------------------------

/// The metrics of one run plus its config record. Metric values are printed
/// with every digit.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const;

  /// A config/host record entry, printed on the info line (value is JSON).
  void Info(const std::string& key, const std::string& json_value);
  void InfoNum(const std::string& key, double value);
  void InfoStr(const std::string& key, const std::string& value);

  /// Sample counts behind each timing, printed on the info line.
  void Samples(const std::string& metric, size_t count);

  /// Every metric name set so far, sorted.
  std::vector<std::string> Names() const;

  /// Sets every metric of this report, and its sample count, in `out`,
  /// named `prefix` + its name.
  void CopyInto(const std::string& prefix, Report* out) const;

  std::string InfoJson() const;
  std::string MetricsJson(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::map<std::string, size_t> samples_;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);

// ---- Measurement scaffolding -------------------------------------------------

/// Runs `build` `times` times and reports setup_s, the median of the
/// untraced set-ups. In a traced run the middle set-up is traced, and the
/// untraced and traced medians are also reported as the halves of setup_s
/// (see MeasurePhases).
entmatcher::Status MeasureSetup(
    const RunConfig& config, size_t times,
    const std::function<entmatcher::Status()>& build, Report* report);

/// One measured phase of a workload: runs its loop for `seconds` in
/// `segments` segments and reports the end-to-end metrics into the report.
using Phase = std::function<void(double seconds, size_t segments, Report*)>;

/// Untraced run: one phase over the whole budget, reported into `report`.
/// Traced run: an untraced half, then a traced half, whose metrics are
/// reported as half.untraced.<metric> and half.traced.<metric>; run.py turns
/// each pair into trace.overhead.<metric>. Returns with tracing still on in
/// a traced run, so the layer measurements that follow record spans.
void MeasurePhases(const RunConfig& config, size_t segments,
                   const Phase& phase, Report* report);

// ---- Correctness ledger -----------------------------------------------------

/// Counts operations and failures (error, rejection, timeout or a result that
/// differs from its reference). Thread-safe.
class Ledger {
 public:
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  /// Records one operation: ok when `good`.
  void Check(bool good, const std::string& what) {
    if (good) {
      Ok();
    } else {
      Fail(what);
    }
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  size_t printed_ = 0;
};

// ---- Inputs ------------------------------------------------------------------

/// A generated aligned embedding pair: source row r's true counterpart is
/// target row r.
struct Pair {
  entmatcher::Matrix source;
  entmatcher::Matrix target;
};

/// Knobs of the clustered pair construction (datagen/embf_synth).
struct PairShape {
  size_t rows = 0;
  size_t dim = 64;
  size_t clusters = 64;
  double spread = 0.25;
  double noise = 0.05;
};

/// Generates `shape` from `seed` through SynthEmbfPair (streamed to EMBF
/// files under `dir`, read back, files removed).
entmatcher::Result<Pair> MakePair(const std::string& dir,
                                  const std::string& tag,
                                  const PairShape& shape, uint64_t seed);

/// Share of source rows whose row-wise argmax target is the identity one
/// (DInf accuracy against the generated alignment).
double IdentityAccuracy(const std::vector<int32_t>& target_of_source);

/// Deterministic 64-bit mix of (seed, stream): derives independent seeds.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// ---- Process accounting ------------------------------------------------------

/// This process's peak resident set (getrusage), MB.
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of `pid`, MB; 0 when unreadable.
double ProcessPeakRssMb(pid_t pid);
/// This process's CPU time, all threads, ms. The kernel leaves time the
/// hypervisor stole from a vCPU out of it.
double SelfCpuMs();
/// utime+stime of `pid` from /proc/<pid>/stat, ms; -1 when unreadable.
double ProcessCpuMs(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
