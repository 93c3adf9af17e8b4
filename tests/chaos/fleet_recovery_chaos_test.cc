// Self-healing chaos: a rotating SIGKILL storm across every shard while the
// FleetSupervisor restarts them and a concurrent query storm keeps reading
// (ctest label `chaos`; real processes, so it runs in every build). The
// invariants held to:
//   1. definite termination — every storm query returns a Status, every kill
//      completes a recovery cycle, StopAll leaves nothing running,
//   2. exact restart ledger — completed restarts == kills issued, per shard,
//      with a reap→re-admission latency recorded for each cycle,
//   3. zero mixed-version merges — restarted shards re-join converged, so
//      version_mismatches == 0 across every crash/restart interleaving,
//   4. every *successful* answer is bit-identical to a solo engine run, and
//      the router's query ledger stays exact (queries == ok + degraded +
//      failed) with breakers tripping and reclosing along the way.

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
#include "fleet/supervisor.h"
#include "la/matrix_io.h"
#include "matching/engine.h"

namespace entmatcher {
namespace {

constexpr size_t kRows = 24;
constexpr size_t kDim = 12;
constexpr int kShards = 3;
constexpr uint64_t kRounds = 2;  // rotating kills: every shard, twice

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

class FleetRecoveryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("EM_CLI_PATH");
    if (cli == nullptr) {
      GTEST_SKIP() << "EM_CLI_PATH not set (run through ctest)";
    }
    cli_path_ = cli;
    dir_ = "/tmp/em_fleet_recovery_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    source_ = RandomEmbeddings(kRows, 31);
    target_ = RandomEmbeddings(kRows + 8, 32);
    ASSERT_TRUE(WriteMatrixBinary(source_, dir_ + "/src.emat").ok());
    ASSERT_TRUE(WriteMatrixBinary(target_, dir_ + "/tgt.emat").ok());
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string cli_path_;
  std::string dir_;
  std::string plan_path_;
  Matrix source_;
  Matrix target_;
};

TEST_F(FleetRecoveryChaosTest, RotatingSigkillStormRecoversEveryShard) {
  // 1 replica per range: each kill is survivable mid-recovery, but only the
  // supervisor brings redundancy back for the NEXT kill — without restarts
  // the second round of the rotation would strand ranges ownerless.
  Result<ShardPlan> made = ShardPlan::EvenSplit(
      "p", dir_ + "/src.emat", dir_ + "/tgt.emat", "", kRows, kShards, dir_,
      /*replicas=*/1);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const ShardPlan plan = std::move(made).value();
  plan_path_ = dir_ + "/plan.json";
  ASSERT_TRUE(plan.Save(plan_path_).ok());

  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  Status healthy = manager.WaitHealthy(20'000'000);
  ASSERT_TRUE(healthy.ok()) << healthy.ToString();

  RouterConfig config;
  config.retry.max_attempts = 3;
  // Breakers on with a short cooldown: kills trip them open mid-storm and
  // recoveries must reclose them — the transition counters prove both.
  config.breaker_failures = 3;
  config.breaker_cooldown_micros = 20'000;
  Result<std::unique_ptr<Router>> router = Router::Create(plan, config);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  RestartPolicy policy;
  policy.initial_backoff_micros = 10'000;
  policy.max_backoff_micros = 100'000;
  policy.boot_budget_micros = 20'000'000;
  policy.jitter_seed = 13;
  FleetSupervisor supervisor(&manager, router->get(), plan, policy);
  ASSERT_TRUE(supervisor.Start().ok());

  // Fault-free reference computed solo, before any chaos.
  Result<MatchEngine> engine = MatchEngine::Create(
      Matrix(source_), Matrix(target_), MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(engine.ok());
  Result<Assignment> solo = engine->Match();
  ASSERT_TRUE(solo.ok());
  const std::vector<int32_t>& reference = solo->target_of_source;

  // The query storm runs for the whole rotation; the kill choreography on
  // the main thread decides when it ends.
  constexpr size_t kThreads = 3;
  std::atomic<bool> storm_done{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> succeeded{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> storm;
  storm.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    storm.emplace_back([&] {
      while (!storm_done.load()) {
        WireRequest request;
        request.verb = WireRequest::Verb::kMatch;
        request.algorithm = AlgorithmPreset::kCsls;
        request.pair = "p";
        Result<WireResponse> answer = (*router)->Query(request);
        answered.fetch_add(1);  // definite termination: ok OR a real error
        if (!answer.ok()) continue;
        succeeded.fetch_add(1);
        if (answer->values != reference) wrong.fetch_add(1);
      }
    });
  }

  // Rotate SIGKILL across every shard, kRounds times over. WaitRestarts
  // takes the ABSOLUTE completed-restart target, so the choreography is
  // race-free no matter how fast a cycle completes.
  for (uint64_t round = 1; round <= kRounds; ++round) {
    for (int shard = 0; shard < kShards; ++shard) {
      ::usleep(20'000);  // let some storm traffic hit the healthy fleet
      ASSERT_TRUE(manager.Kill(shard, SIGKILL).ok())
          << "round " << round << " shard " << shard;
      Status recovered = supervisor.WaitRestarts(shard, round, 30'000'000);
      ASSERT_TRUE(recovered.ok())
          << "round " << round << " shard " << shard << ": "
          << recovered.ToString();
    }
  }
  ::usleep(20'000);  // post-recovery traffic through the fully healed fleet
  storm_done.store(true);
  for (std::thread& thread : storm) thread.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(succeeded.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "a merged answer diverged from the solo run";

  // Exact restart ledger: every kill completed one recovery cycle, nothing
  // struck out, and each cycle logged its reap→re-admission latency.
  const std::vector<ShardRecoveryStatus> ledger = supervisor.Ledger();
  ASSERT_EQ(ledger.size(), static_cast<size_t>(kShards));
  for (const ShardRecoveryStatus& shard : ledger) {
    EXPECT_EQ(shard.restarts, kRounds) << "shard " << shard.shard_id;
    EXPECT_FALSE(shard.permanently_failed) << "shard " << shard.shard_id;
    EXPECT_FALSE(shard.recovering) << "shard " << shard.shard_id;
  }
  const std::vector<uint64_t> latencies = supervisor.RestartLatencies();
  EXPECT_EQ(latencies.size(), kRounds * kShards);
  for (uint64_t latency : latencies) EXPECT_GT(latency, 0u);

  // Router ledger exact, merges pure. No swap ran and every re-join
  // converged, so a single mixed-version merge would mean a restarted shard
  // was re-admitted at the wrong snapshot version.
  const RouterStatsSnapshot stats = (*router)->Stats();
  EXPECT_EQ(stats.queries, answered.load());
  EXPECT_EQ(stats.queries, stats.ok + stats.degraded + stats.failed)
      << stats.ToJson().Dump();
  EXPECT_EQ(stats.ok, succeeded.load());
  EXPECT_EQ(stats.version_mismatches, 0u) << stats.ToJson().Dump();
  // Every breaker that opened must have reclosed through a half-open probe.
  EXPECT_EQ(stats.breaker_opens, stats.breaker_closes) << stats.ToJson().Dump();

  supervisor.Stop();
  router->reset();
  manager.StopAll();
  for (const ShardProcessStatus& status : manager.Status_()) {
    EXPECT_FALSE(status.running) << "shard " << status.shard_id;
  }
}

}  // namespace
}  // namespace entmatcher
