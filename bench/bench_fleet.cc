// Fleet benchmark: the same mixed match/topk storm is routed through a
// 1-shard and a 4-shard fleet of REAL shard processes (ShardManager forks
// the entmatcher_cli binary; the router scatter-gathers over unix sockets),
// and the harness reports aggregate QPS plus client-observed p50/p99 per
// shard count. Writes BENCH_fleet.json.
//
// The 4-vs-1 QPS ratio: every shard loads the full pair, but a CSLS match or
// top-k range is row-local, so each shard scores only its quarter of the
// rows (against a column statistic its snapshot builds once) and the fleet
// does about one pair's work per query. When each shard computed the full
// pair and sliced its rows, 4 shards did 4x the work and read 0.37-0.46x
// the QPS of 1; row-local ranges read 1.29-1.32x on a 4-core host (two
// alternated full-scale runs each). With one shard's 4 serve workers
// already busy on 4 cores, a fleet on the same cores can at best conserve
// work, so a ratio well above 1 is not expected.
//
// Hard gates (correctness, not speed — a 1-core CI container cannot
// demonstrate multi-process speedup, so there is deliberately no QPS-ratio
// gate):
//   1. every merged answer is bit-identical to a solo MatchEngine run,
//   2. the router ledger is exact: queries == ok + failed, failed == 0,
//   3. zero mixed-version merges (no swap runs during the storm),
//   4. definite termination: every storm query returns, StopAll reaps all.
//
// A recovery section then SIGKILLs shards in rotation under a
// FleetSupervisor and reports reap→re-admission restart-latency p50/p99;
// its gate is that every kill completes a recovery cycle with no permanent
// failures. EM_FAULT_PLAN is honored, so CI can inject fleet.spawn
// failures into the restart path.
//
// Usage:
//   ./bench_fleet                     # sizes scaled by EM_BENCH_SCALE
//   EM_BENCH_SCALE=0.2 ./bench_fleet  # CI smoke run
// The shard binary is located via EM_CLI_PATH, falling back to
// <bench dir>/../examples/entmatcher_cli in the build tree.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/timer.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
#include "fleet/supervisor.h"
#include "la/matrix_io.h"
#include "la/topk.h"
#include "matching/engine.h"

namespace entmatcher {
namespace {

constexpr size_t kDim = 32;
constexpr size_t kClients = 4;
constexpr size_t kTopK = 5;

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

/// The shard binary: EM_CLI_PATH, else ../examples/entmatcher_cli next to
/// this bench in the build tree.
std::string LocateCli() {
  const char* env = std::getenv("EM_CLI_PATH");
  if (env != nullptr) return env;
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) return "";
  buf[len] = '\0';
  std::string self(buf);
  const size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "";
  return self.substr(0, slash) + "/../examples/entmatcher_cli";
}

struct FleetResult {
  int shards = 0;
  size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  uint64_t failed = 0;
  uint64_t failovers = 0;
  uint64_t version_mismatches = 0;
  bool ledger_exact = false;
  bool identical = true;
};

/// True when a shard outlived StopAll; names each such shard on stderr.
bool AnyRunning(const ShardManager& manager) {
  bool any = false;
  for (const ShardProcessStatus& status : manager.Status_()) {
    if (status.running) {
      std::cerr << "shard " << status.shard_id << " survived StopAll\n";
      any = true;
    }
  }
  return any;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5));
  return values[index];
}

}  // namespace
}  // namespace entmatcher

int main() {
  using namespace entmatcher;

  const Status faults = ArmFaultInjectionFromEnv();
  if (!faults.ok()) {
    std::cerr << faults.ToString() << "\n";
    return 1;
  }
  const bool faults_armed = FaultInjector::Global().armed();

  const double scale = bench::GlobalScale();
  const size_t rows = std::max<size_t>(32, static_cast<size_t>(600.0 * scale));
  const size_t per_client =
      std::max<size_t>(4, static_cast<size_t>(20.0 * scale));
  const std::string cli = LocateCli();

  bench::PrintBanner(
      "Fleet — sharded multi-process serving: 1-shard vs 4-shard QPS + p99",
      "ShardManager forks real shard processes; the Router scatter-gathers\n"
      "the same mixed match/topk storm over unix sockets at 1 and 4 shards.\n"
      "Gates are correctness only: bit-identity to a solo engine run, an\n"
      "exact router ledger, zero mixed-version merges.");
  bench::BenchReport report("fleet");
  report.Config("rows", rows);
  report.Config("dim", kDim);
  report.Config("clients", kClients);
  report.Config("queries_per_client", per_client);
  report.Config("fault_plan", FaultInjector::Global().Fingerprint());

  if (cli.empty() || ::access(cli.c_str(), X_OK) != 0) {
    std::cerr << "FATAL: shard binary not found (EM_CLI_PATH unset and no "
              << "../examples/entmatcher_cli next to bench_fleet): " << cli
              << "\n";
    return 1;
  }

  const std::string dir = "/tmp/em_bench_fleet_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const Matrix source = RandomEmbeddings(rows, /*seed=*/21);
  const Matrix target = RandomEmbeddings(rows + rows / 4, /*seed=*/22);
  if (!WriteMatrixBinary(source, dir + "/src.emat").ok() ||
      !WriteMatrixBinary(target, dir + "/tgt.emat").ok()) {
    std::cerr << "FATAL: cannot write embeddings under " << dir << "\n";
    return 1;
  }

  // Solo references: the merged fleet answers must reproduce these exactly.
  Result<MatchEngine> engine =
      MatchEngine::Create(Matrix(source), Matrix(target),
                          MakePreset(AlgorithmPreset::kCsls));
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }
  Result<Assignment> solo_match = engine->Match();
  Result<Matrix> solo_scores =
      engine->TransformedScores(MakePreset(AlgorithmPreset::kCsls));
  if (!solo_match.ok() || !solo_scores.ok()) {
    std::cerr << "FATAL: solo reference failed\n";
    return 1;
  }
  const std::vector<int32_t>& match_reference = solo_match->target_of_source;
  const std::vector<uint32_t> topk_reference =
      RowTopKIndices(*solo_scores, kTopK);

  std::vector<FleetResult> results;
  for (int shards : {1, 4}) {
    Result<ShardPlan> made = ShardPlan::EvenSplit(
        "p", dir + "/src.emat", dir + "/tgt.emat", "", rows, shards, dir,
        /*replicas=*/0);
    if (!made.ok()) {
      std::cerr << made.status().ToString() << "\n";
      return 1;
    }
    const std::string plan_path =
        dir + "/plan_" + std::to_string(shards) + ".json";
    if (!made->Save(plan_path).ok()) {
      std::cerr << "FATAL: cannot save " << plan_path << "\n";
      return 1;
    }

    ShardManager manager;
    Status started =
        manager.Start(*made, ShardCommand::SelfServe(plan_path, cli));
    if (!started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
    Status healthy = manager.WaitHealthy(30'000'000);
    if (!healthy.ok()) {
      std::cerr << healthy.ToString() << "\n";
      manager.StopAll();
      return 1;
    }
    Result<std::unique_ptr<Router>> router = Router::Create(*made, {});
    if (!router.ok()) {
      std::cerr << router.status().ToString() << "\n";
      manager.StopAll();
      return 1;
    }

    FleetResult result;
    result.shards = shards;
    result.queries = kClients * per_client;
    std::atomic<bool> identical{true};
    std::atomic<uint64_t> answered{0};
    std::mutex latency_mu;
    std::vector<double> latencies_micros;
    std::vector<std::thread> storm;
    Timer wall;
    for (size_t c = 0; c < kClients; ++c) {
      storm.emplace_back([&, c] {
        for (size_t q = 0; q < per_client; ++q) {
          WireRequest request;
          request.pair = "p";
          request.algorithm = AlgorithmPreset::kCsls;
          const bool topk = (c + q) % 2 == 1;  // alternate match / topk
          if (topk) {
            request.verb = WireRequest::Verb::kTopK;
            request.k = kTopK;
          } else {
            request.verb = WireRequest::Verb::kMatch;
          }
          Timer per_query;
          Result<WireResponse> answer = (*router)->Query(request);
          const double micros = per_query.ElapsedSeconds() * 1e6;
          answered.fetch_add(1);
          {
            std::lock_guard<std::mutex> lock(latency_mu);
            latencies_micros.push_back(micros);
          }
          if (!answer.ok()) {
            identical.store(false, std::memory_order_relaxed);
            continue;
          }
          bool same;
          if (topk) {
            same = answer->values.size() == topk_reference.size();
            for (size_t i = 0; same && i < topk_reference.size(); ++i) {
              same = answer->values[i] ==
                     static_cast<int32_t>(topk_reference[i]);
            }
          } else {
            same = answer->values.size() == match_reference.size();
            for (size_t i = 0; same && i < match_reference.size(); ++i) {
              same = answer->values[i] == match_reference[i];
            }
          }
          if (!same) identical.store(false, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& thread : storm) thread.join();
    result.seconds = wall.ElapsedSeconds();
    result.qps = result.seconds > 0.0
                     ? static_cast<double>(result.queries) / result.seconds
                     : 0.0;
    result.p50_micros = Percentile(latencies_micros, 0.50);
    result.p99_micros = Percentile(latencies_micros, 0.99);
    result.identical = identical.load();

    const RouterStatsSnapshot stats = (*router)->Stats();
    result.failed = stats.failed;
    result.failovers = stats.failovers;
    result.version_mismatches = stats.version_mismatches;
    result.ledger_exact = stats.queries == answered.load() &&
                          stats.queries == stats.ok + stats.failed;

    router->reset();
    manager.StopAll();
    report.Gate("shards" + std::to_string(shards) + ".stop_all_reaps",
                !AnyRunning(manager), "every shard process exited");

    std::cout << "shards=" << result.shards << ": " << result.queries
              << " queries in " << FormatDouble(result.seconds * 1e3, 1)
              << " ms  (" << FormatDouble(result.qps, 1) << " q/s)  p50="
              << FormatDouble(result.p50_micros, 0) << " us  p99="
              << FormatDouble(result.p99_micros, 0) << " us  failed="
              << result.failed << "  mixed_version_merges="
              << result.version_mismatches << "  identical="
              << (result.identical ? "yes" : "NO") << "  ledger="
              << (result.ledger_exact ? "exact" : "INEXACT") << "\n";
    results.push_back(result);
  }

  // --- Gates. ---
  for (const FleetResult& result : results) {
    const std::string prefix = "shards" + std::to_string(result.shards) + ".";
    const JsonValue::Object labels = {{"shards", result.shards}};
    report.Metric("fleet", "qps", labels, result.qps, "1/s", "higher");
    report.Metric("fleet", "latency_p50_ms", labels, result.p50_micros / 1e3,
                  "ms", "lower");
    report.Metric("fleet", "latency_p99_ms", labels, result.p99_micros / 1e3,
                  "ms", "lower");
    report.Metric("router", "failovers", labels,
                  static_cast<double>(result.failovers), "count", "lower");
    report.Gate(prefix + "answers_identical_to_solo", result.identical,
                "every merged answer against a solo engine run");
    report.Gate(prefix + "router_ledger_exact",
                result.ledger_exact && result.failed == 0,
                std::to_string(result.failed) + " failed queries");
    report.Gate(prefix + "no_mixed_version_merges",
                result.version_mismatches == 0,
                std::to_string(result.version_mismatches) +
                    " mixed-version merges with no swap in flight");
  }
  const double qps1 = results[0].qps;
  const double qps4 = results[1].qps;
  const double qps_ratio = qps1 > 0.0 ? qps4 / qps1 : 0.0;
  report.Metric("fleet", "qps_ratio", {{"shards", "4 vs 1"}}, qps_ratio, "x",
                "higher");
  std::cout << "shards=4 vs shards=1: " << FormatDouble(qps_ratio, 2)
            << "x QPS (informational — no speed gate on shared-core CI)\n";

  // --- Recovery section: rotating SIGKILLs under a FleetSupervisor, ---
  // --- restart latency measured reap → re-admission.                ---
  constexpr int kRecoveryShards = 3;
  const uint64_t recovery_rounds =
      std::max<uint64_t>(2, static_cast<uint64_t>(4.0 * scale));
  report.Config("recovery_shards", kRecoveryShards);
  report.Config("recovery_rounds", recovery_rounds);
  {
    Result<ShardPlan> made = ShardPlan::EvenSplit(
        "p", dir + "/src.emat", dir + "/tgt.emat", "", rows, kRecoveryShards,
        dir, /*replicas=*/1);
    if (!made.ok()) {
      std::cerr << made.status().ToString() << "\n";
      return 1;
    }
    const std::string plan_path = dir + "/plan_recovery.json";
    if (!made->Save(plan_path).ok()) {
      std::cerr << "FATAL: cannot save " << plan_path << "\n";
      return 1;
    }
    ShardManager manager;
    Status started =
        manager.Start(*made, ShardCommand::SelfServe(plan_path, cli));
    if (!started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
    Status healthy = manager.WaitHealthy(30'000'000);
    if (!healthy.ok()) {
      std::cerr << healthy.ToString() << "\n";
      manager.StopAll();
      return 1;
    }
    Result<std::unique_ptr<Router>> router = Router::Create(*made, {});
    if (!router.ok()) {
      std::cerr << router.status().ToString() << "\n";
      manager.StopAll();
      return 1;
    }
    RestartPolicy policy;
    policy.initial_backoff_micros = 10'000;
    policy.max_backoff_micros = 200'000;
    policy.boot_budget_micros = 30'000'000;  // jitter seed: EM_FAULT_SEED
    FleetSupervisor supervisor(&manager, router->get(), *made, policy);
    Status sup = supervisor.Start();
    if (!sup.ok()) {
      std::cerr << sup.ToString() << "\n";
      manager.StopAll();
      return 1;
    }
    uint64_t kills = 0;
    uint64_t recovered = 0;
    for (uint64_t round = 1; round <= recovery_rounds; ++round) {
      for (int shard = 0; shard < kRecoveryShards; ++shard) {
        if (!manager.Kill(shard, SIGKILL).ok()) continue;
        ++kills;
        Status restarted = supervisor.WaitRestarts(shard, round, 90'000'000);
        if (restarted.ok()) {
          ++recovered;
        } else {
          std::cerr << "shard " << shard << " round " << round
                    << " never recovered: " << restarted.ToString() << "\n";
        }
      }
    }
    std::vector<double> restart_micros;
    for (uint64_t latency : supervisor.RestartLatencies()) {
      restart_micros.push_back(static_cast<double>(latency));
    }
    const double restart_p50 = Percentile(restart_micros, 0.50);
    const double restart_p99 = Percentile(restart_micros, 0.99);
    uint64_t spawn_failures = 0;
    uint64_t rejoin_failures = 0;
    uint64_t permanently_failed = 0;
    for (const ShardRecoveryStatus& shard : supervisor.Ledger()) {
      spawn_failures += shard.spawn_failures;
      rejoin_failures += shard.rejoin_failures;
      permanently_failed += shard.permanently_failed ? 1 : 0;
    }
    // The healed fleet still answers bit-identically.
    WireRequest request;
    request.verb = WireRequest::Verb::kMatch;
    request.algorithm = AlgorithmPreset::kCsls;
    request.pair = "p";
    Result<WireResponse> answer = (*router)->Query(request);
    const bool healed_identical =
        answer.ok() &&
        std::equal(answer->values.begin(), answer->values.end(),
                   match_reference.begin(), match_reference.end());
    const uint64_t mismatches = (*router)->Stats().version_mismatches;
    supervisor.Stop();
    router->reset();
    manager.StopAll();

    std::cout << "recovery: " << recovered << "/" << kills
              << " kills recovered  restart p50="
              << FormatDouble(restart_p50 / 1e3, 1) << " ms  p99="
              << FormatDouble(restart_p99 / 1e3, 1) << " ms  spawn_failures="
              << spawn_failures << "  rejoin_failures=" << rejoin_failures
              << (faults_armed ? "  (faults armed)" : "") << "\n";
    const JsonValue::Object labels = {{"shards", kRecoveryShards}};
    report.Metric("fleet", "restart_p50_ms", labels, restart_p50 / 1e3, "ms",
                  "lower");
    report.Metric("fleet", "restart_p99_ms", labels, restart_p99 / 1e3, "ms",
                  "lower");
    report.Metric("fleet", "spawn_failures", labels,
                  static_cast<double>(spawn_failures), "count", "lower");
    report.Metric("fleet", "rejoin_failures", labels,
                  static_cast<double>(rejoin_failures), "count", "lower");
    report.Gate("recovery.every_kill_recovers", recovered == kills,
                std::to_string(recovered) + "/" + std::to_string(kills) +
                    " SIGKILLs recovered");
    report.Gate("recovery.no_permanent_failure", permanently_failed == 0,
                std::to_string(permanently_failed) +
                    " shards permanently failed");
    report.Gate("recovery.healed_fleet_identical_to_solo", healed_identical,
                answer.ok() ? "healed fleet answered"
                            : "healed fleet cannot answer: " +
                                  answer.status().ToString());
    report.Gate("recovery.no_mixed_version_merges", mismatches == 0,
                std::to_string(mismatches) + " mixed-version merges");
    report.Gate("recovery.stop_all_reaps", !AnyRunning(manager),
                "every shard process exited");
  }
  return report.Finish();
}
