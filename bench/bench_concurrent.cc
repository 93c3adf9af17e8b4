// Concurrent-serving benchmark: the same mixed-preset storm is fired at a
// MatchServer with a worker pool of 1, 2, 4, and 8 execution threads, and
// the harness reports QPS, latency percentiles and scores passes per worker
// count. Kernel-level threading is pinned to 1 thread, so the worker pool is
// the only source of parallelism being measured. Writes
// BENCH_concurrent.json.
//
// Gates:
//   - every response is OK, so fast failures cannot pass as throughput;
//   - on hosts with >= 4 hardware threads, workers=4 reaches >= 2x the QPS
//     of workers=1 (the storm carries 4 distinct score signatures, so there
//     is always enough independent batch work to spread). On smaller hosts
//     the gate is skipped: a 1-core runner cannot show parallel speedup.
// That served bytes do not depend on the worker count or on cache hits is
// a test (ServeConcurrencyTest.StormIsBitIdenticalAtEveryWorkerCount), not
// a gate here.
//
// Usage:
//   ./bench_concurrent                     # sizes scaled by EM_BENCH_SCALE
//   EM_BENCH_SCALE=0.3 ./bench_concurrent  # CI smoke run

#include <algorithm>
#include <atomic>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "serve/server.h"

namespace entmatcher {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kClients = 4;
constexpr size_t kQueriesPerClient = 12;
constexpr double kScalingGate = 2.0;  // workers=4 QPS over workers=1

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

/// Four distinct score signatures — the independent batch work the pool can
/// actually parallelize.
const std::vector<AlgorithmPreset>& StormPresets() {
  static const std::vector<AlgorithmPreset> presets = {
      AlgorithmPreset::kCsls, AlgorithmPreset::kDInf,
      AlgorithmPreset::kSinkhorn, AlgorithmPreset::kStableMatch};
  return presets;
}

Result<std::unique_ptr<MatchServer>> StartServer(size_t workers,
                                                 const Matrix& src,
                                                 const Matrix& tgt) {
  MatchServerConfig config;
  config.queue_capacity = 4 * kClients * kQueriesPerClient;
  config.serve_workers = workers;
  EM_ASSIGN_OR_RETURN(std::unique_ptr<MatchServer> server,
                      MatchServer::Create(config));
  EM_RETURN_NOT_OK(server->LoadPair("default", Matrix(src), Matrix(tgt)));
  EM_RETURN_NOT_OK(server->Start());
  return server;
}

/// Fires the mixed-preset storm from kClients threads; returns the wall
/// seconds and counts the non-OK responses into `failures`.
double DriveStorm(MatchServer* server, std::atomic<uint64_t>* failures) {
  std::vector<std::thread> clients;
  Timer timer;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([server, failures, c] {
      const std::vector<AlgorithmPreset>& presets = StormPresets();
      std::vector<std::future<ServeResponse>> inflight;
      for (size_t q = 0; q < kQueriesPerClient; ++q) {
        ServeRequest request;
        request.options = MakePreset(presets[(c + q) % presets.size()]);
        inflight.push_back(server->Submit(std::move(request)));
      }
      for (std::future<ServeResponse>& f : inflight) {
        if (!f.get().status.ok()) failures->fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return timer.ElapsedSeconds();
}

}  // namespace
}  // namespace entmatcher

int main() {
  using namespace entmatcher;

  const double scale = bench::GlobalScale();
  const size_t n = std::max<size_t>(16, static_cast<size_t>(1200.0 * scale));
  const size_t storm_queries = kClients * kQueriesPerClient;

  bench::PrintBanner(
      "MatchServer — worker-pool scaling",
      "The same 4-signature storm at serve_workers 1/2/4/8, kernel threads\n"
      "pinned to 1 so the pool is the only parallelism.");
  SetNumThreads(1);
  bench::BenchReport report("concurrent");
  report.Config("rows", n);
  report.Config("dim", kDim);
  report.Config("storm_queries", storm_queries);
  report.Config("kernel_threads", 1);

  const Matrix src = RandomEmbeddings(n, /*seed=*/31);
  const Matrix tgt = RandomEmbeddings(n, /*seed=*/47);

  std::vector<double> qps_by_workers;
  std::atomic<uint64_t> failures{0};
  for (size_t workers : {1, 2, 4, 8}) {
    Result<std::unique_ptr<MatchServer>> server =
        StartServer(workers, src, tgt);
    if (!server.ok()) {
      std::cerr << server.status().ToString() << "\n";
      return 1;
    }
    const double seconds = DriveStorm(server->get(), &failures);
    (*server)->Shutdown();
    const ServerStatsSnapshot stats = (*server)->Stats();
    const double qps =
        seconds > 0.0 ? static_cast<double>(storm_queries) / seconds : 0.0;
    qps_by_workers.push_back(qps);
    const JsonValue::Object labels = {{"workers", workers}};
    report.Metric("server", "qps", labels, qps, "1/s", "higher");
    report.Metric("server", "latency_p50", labels, stats.latency_p50_micros,
                  "us", "lower");
    report.Metric("server", "latency_p99", labels, stats.latency_p99_micros,
                  "us", "lower");
    report.Metric("server", "scores_passes", labels,
                  static_cast<double>(stats.batches), "count", "lower");
    std::cout << "workers=" << workers << ": " << storm_queries
              << " queries in " << FormatDouble(seconds * 1e3, 1) << " ms  ("
              << FormatDouble(qps, 1) << " q/s)  p50="
              << FormatDouble(stats.latency_p50_micros, 0) << " us  p99="
              << FormatDouble(stats.latency_p99_micros, 0)
              << " us  passes=" << stats.batches << "\n";
  }

  report.Gate("every_response_ok", failures.load() == 0,
              std::to_string(failures.load()) + " non-OK responses");
  const double scaling4 =
      qps_by_workers[0] > 0.0 ? qps_by_workers[2] / qps_by_workers[0] : 0.0;
  report.Metric("server", "qps_ratio", {{"workers", "4 vs 1"}}, scaling4, "x",
                "higher");
  const std::string scaling_detail =
      "workers=4 at " + FormatDouble(scaling4, 2) +
      "x the QPS of workers=1, need >= " + FormatDouble(kScalingGate, 1) + "x";
  if (bench::HardwareThreads() >= 4) {
    report.Gate("workers4_qps_over_workers1", scaling4 >= kScalingGate,
                scaling_detail);
  } else {
    report.SkipGate("workers4_qps_over_workers1",
                    scaling_detail + "; needs >= 4 hardware threads, host has " +
                        std::to_string(bench::HardwareThreads()));
  }
  return report.Finish();
}
