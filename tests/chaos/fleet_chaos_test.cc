// Fleet chaos: SIGKILL a real shard process in the middle of a concurrent
// query storm and hold the router to its invariants (ctest label `chaos`;
// needs real processes, not compiled-in fault points, so it runs in every
// build unlike the injection-driven chaos_test):
//   1. definite termination — every storm query returns a Status, the storm
//      never hangs, and StopAll leaves nothing running,
//   2. exact ledgers — router queries == ok + failed after the storm drains,
//   3. zero mixed-version merges — no swap ran, so version_mismatches == 0
//      no matter how the kill interleaves with scatter-gather,
//   4. every *successful* answer is bit-identical to a solo engine run.

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
#include "la/matrix_io.h"
#include "matching/engine.h"

namespace entmatcher {
namespace {

constexpr size_t kRows = 24;
constexpr size_t kDim = 12;

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

class FleetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("EM_CLI_PATH");
    if (cli == nullptr) {
      GTEST_SKIP() << "EM_CLI_PATH not set (run through ctest)";
    }
    cli_path_ = cli;
    dir_ = "/tmp/em_fleet_chaos_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    source_ = RandomEmbeddings(kRows, 11);
    target_ = RandomEmbeddings(kRows + 8, 12);
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

TEST_F(FleetChaosTest, SigkillMidStormKeepsLedgersExactAndMergesPure) {
  // 3 shards, 1 replica each: every range has exactly one backup, so the
  // kill is survivable but never masked by excess redundancy.
  Result<ShardPlan> made = ShardPlan::EvenSplit(
      "p", dir_ + "/src.emat", dir_ + "/tgt.emat", "", kRows, /*shards=*/3,
      dir_, /*replicas=*/1);
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
  Result<std::unique_ptr<Router>> router = Router::Create(plan, config);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Fault-free reference computed solo, before any chaos.
  Result<MatchEngine> engine = MatchEngine::Create(
      Matrix(source_), Matrix(target_), MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(engine.ok());
  Result<Assignment> solo = engine->Match();
  ASSERT_TRUE(solo.ok());
  const std::vector<int32_t>& reference = solo->target_of_source;

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 25;
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> succeeded{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> storm;
  storm.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    storm.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        WireRequest request;
        request.verb = WireRequest::Verb::kMatch;
        request.algorithm = AlgorithmPreset::kCsls;
        request.pair = "p";
        Result<WireResponse> answer = (*router)->Query(request);
        answered.fetch_add(1);  // definite termination: ok OR a real error
        if (!answer.ok()) continue;
        succeeded.fetch_add(1);
        if (answer->values.size() != reference.size()) {
          wrong.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < reference.size(); ++r) {
          if (answer->values[r] != reference[r]) {
            wrong.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  // Let the storm get going, then SIGKILL shard 1 mid-flight. Its ranges
  // must fail over to the replica; answers stay bit-identical throughout.
  ::usleep(30'000);
  ASSERT_TRUE(manager.Kill(1, SIGKILL).ok());
  for (std::thread& thread : storm) thread.join();

  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(wrong.load(), 0u) << "a merged answer diverged from the solo run";
  // Replicas cover every range, so the storm should ride through the kill.
  EXPECT_GT(succeeded.load(), 0u);

  const RouterStatsSnapshot stats = (*router)->Stats();
  EXPECT_EQ(stats.queries, answered.load());
  EXPECT_EQ(stats.queries, stats.ok + stats.failed) << stats.ToJson().Dump();
  EXPECT_EQ(stats.ok, succeeded.load());
  // No swap ran: a single mixed-version merge here means the router mixed
  // snapshots across shards on its own.
  EXPECT_EQ(stats.version_mismatches, 0u) << stats.ToJson().Dump();

  // The reaper must have observed the kill as a signal death, not an exit.
  bool observed = false;
  for (int i = 0; i < 200 && !observed; ++i) {
    for (const ShardProcessStatus& status : manager.Status_()) {
      if (status.shard_id == 1 && !status.running) {
        observed = true;
        EXPECT_EQ(status.last_term_signal, SIGKILL);
      }
    }
    if (!observed) ::usleep(20'000);
  }
  EXPECT_TRUE(observed) << "reaper never observed the SIGKILL";

  router->reset();
  manager.StopAll();
  for (const ShardProcessStatus& status : manager.Status_()) {
    EXPECT_FALSE(status.running) << "shard " << status.shard_id;
  }
}

}  // namespace
}  // namespace entmatcher
