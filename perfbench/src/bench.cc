#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "datagen/embf_synth.h"
#include "la/mmap_store.h"

namespace perfbench {

using entmatcher::Matrix;
using entmatcher::Result;
using entmatcher::Status;

// ---- Tracing ---------------------------------------------------------------

namespace {

thread_local uint64_t t_current_span = 0;

uint64_t ThreadTag() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffffff);
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent, uint64_t request,
                    uint64_t id) {
  if (!enabled()) return;
  SpanRecord span;
  span.name = name;
  span.id = id != 0 ? id : NextId();
  span.parent = parent;
  span.request = request;
  span.start = start;
  span.end = end;
  span.thread = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(MsBetween(span.start, span.end));
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write trace file " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanRecord& span : spans_) origin = std::min(origin, span.start);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const double ts = MsBetween(origin, span.start) * 1e3;
    const double dur = MsBetween(span.start, span.end) * 1e3;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << JsonString(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << JsonNumber(ts) << ",\"dur\":" << JsonNumber(dur)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

Span::Span(std::string name, uint64_t request)
    : name_(std::move(name)), parent_(t_current_span), request_(request),
      start_(Clock::now()) {
  if (Tracer::Global().enabled()) {
    id_ = Tracer::Global().NextId();
    t_current_span = id_;
  }
}

double Span::Close() {
  if (elapsed_ms_ >= 0.0) return elapsed_ms_;
  const Clock::time_point end = Clock::now();
  elapsed_ms_ = MsBetween(start_, end);
  if (id_ != 0) {
    t_current_span = parent_;
    // Children point at id_, allocated when this span opened.
    Tracer::Global().Record(name_, start_, end, parent_, request_, id_);
  }
  return elapsed_ms_;
}

// ---- Statistics --------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      rank <= 1.0 ? 0 : std::min(values.size() - 1,
                                 static_cast<size_t>(rank) - 1);
  return values[index];
}

// ---- Report ------------------------------------------------------------------

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Info(const std::string& key, const std::string& json_value) {
  for (auto& entry : info_) {
    if (entry.first == key) {
      entry.second = json_value;
      return;
    }
  }
  info_.emplace_back(key, json_value);
}

void Report::InfoNum(const std::string& key, double value) {
  Info(key, JsonNumber(value));
}

void Report::InfoStr(const std::string& key, const std::string& value) {
  Info(key, JsonString(value));
}

void Report::Samples(const std::string& metric, size_t count) {
  samples_[metric] = count;
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const auto& entry : metrics_) names.push_back(entry.first);
  return names;
}

void Report::CopyInto(const std::string& prefix, Report* out) const {
  for (const auto& [name, metric] : metrics_) {
    out->Set(prefix + name, metric.value, metric.unit);
  }
  for (const auto& [name, count] : samples_) {
    out->Samples(prefix + name, count);
  }
}

std::string Report::InfoJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(info_[i].first) << ": "
        << info_[i].second;
  }
  out << (info_.empty() ? "" : ", ") << "\"samples\": {";
  size_t i = 0;
  for (const auto& [name, count] : samples_) {
    out << (i++ == 0 ? "" : ", ") << JsonString(name) << ": " << count;
  }
  out << "}}";
  return out.str();
}

std::string Report::MetricsJson(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = metrics_.find(names[i]);
    const double value = it == metrics_.end() ? 0.0 : it->second.value;
    const std::string unit = it == metrics_.end() ? "" : it->second.unit;
    out << (i == 0 ? "" : ", ") << JsonString(names[i])
        << ": {\"value\": " << JsonNumber(value)
        << ", \"unit\": " << JsonString(unit) << "}";
  }
  out << "}";
  return out.str();
}

// ---- Measurement scaffolding -------------------------------------------------

Status MeasureSetup(const RunConfig& config, size_t times,
                    const std::function<Status()>& build, Report* report) {
  std::vector<double> untraced;
  std::vector<double> traced;
  for (size_t s = 0; s < times; ++s) {
    const bool trace = config.trace && s == times / 2;
    Tracer::Global().SetEnabled(trace);
    Span span("setup");
    EM_RETURN_NOT_OK(build());
    (trace ? traced : untraced).push_back(span.Close() / 1e3);
  }
  Tracer::Global().SetEnabled(false);
  report->Set("setup_s", Median(untraced), "s");
  report->Samples("setup_s", untraced.size());
  if (!traced.empty()) {
    report->Set("half.untraced.setup_s", Median(untraced), "s");
    report->Set("half.traced.setup_s", Median(traced), "s");
  }
  return Status::OK();
}

void MeasurePhases(const RunConfig& config, size_t segments,
                   const Phase& phase, Report* report) {
  if (!config.trace) {
    phase(config.seconds, segments, report);
    return;
  }
  const size_t half_segments = std::max<size_t>(1, segments / 2);
  Report untraced;
  phase(config.seconds / 2, half_segments, &untraced);
  Tracer::Global().SetEnabled(true);
  Report traced;
  phase(config.seconds / 2, half_segments, &traced);
  untraced.CopyInto("half.untraced.", report);
  traced.CopyInto("half.traced.", report);
}

// ---- Correctness ledger -----------------------------------------------------

void Ledger::Fail(const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (printed_ < 20) {
    std::cerr << "FAILED: " << what << "\n";
    ++printed_;
  }
}

// ---- Inputs ------------------------------------------------------------------

Result<Pair> MakePair(const std::string& dir, const std::string& tag,
                      const PairShape& shape, uint64_t seed) {
  entmatcher::EmbfSynthOptions options;
  options.rows = shape.rows;
  options.dim = shape.dim;
  options.clusters = shape.clusters;
  options.spread = shape.spread;
  options.noise = shape.noise;
  options.seed = seed;
  const std::string src_path = dir + "/" + tag + ".src.embf";
  const std::string tgt_path = dir + "/" + tag + ".tgt.embf";
  EM_RETURN_NOT_OK(entmatcher::SynthEmbfPair(options, src_path, tgt_path));
  Pair pair;
  {
    EM_ASSIGN_OR_RETURN(entmatcher::MmapStore src,
                        entmatcher::MmapStore::Open(src_path));
    EM_ASSIGN_OR_RETURN(entmatcher::MmapStore tgt,
                        entmatcher::MmapStore::Open(tgt_path));
    // Copies of the borrowed views detach into owned heap matrices.
    const Matrix src_view = src.AsMatrix();
    const Matrix tgt_view = tgt.AsMatrix();
    pair.source = src_view;
    pair.target = tgt_view;
  }
  std::remove(src_path.c_str());
  std::remove(tgt_path.c_str());
  return pair;
}

double IdentityAccuracy(const std::vector<int32_t>& target_of_source) {
  if (target_of_source.empty()) return 0.0;
  size_t hits = 0;
  for (size_t r = 0; r < target_of_source.size(); ++r) {
    hits += target_of_source[r] == static_cast<int32_t>(r);
  }
  return static_cast<double>(hits) /
         static_cast<double>(target_of_source.size());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over the combined word.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- Process accounting ------------------------------------------------------

double SelfPeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double SelfCpuMs() {
  timespec now {};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are fields
  // 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (utime + stime) * 1e3 / ticks;
}

}  // namespace perfbench
