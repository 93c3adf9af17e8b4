// Process-level fleet test: ShardManager forks REAL shard processes (the
// built entmatcher_cli, located via EM_CLI_PATH), a Router scatter-gathers
// across them over real unix sockets, and a SIGKILLed shard is observed,
// failed over, and reaped. This is the layer the in-process router tests
// cannot cover: fork/exec, waitpid bookkeeping, and orderly StopAll.

#include "fleet/shard_manager.h"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "la/matrix_io.h"
#include "la/mmap_store.h"
#include "matching/engine.h"
#include "serve/client.h"

namespace entmatcher {
namespace {

constexpr size_t kRows = 20;
constexpr size_t kDim = 12;

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

class FleetProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("EM_CLI_PATH");
    if (cli == nullptr) {
      GTEST_SKIP() << "EM_CLI_PATH not set (run through ctest)";
    }
    cli_path_ = cli;
    dir_ = "/tmp/em_fleet_proc_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    source_ = RandomEmbeddings(kRows, 3);
    target_ = RandomEmbeddings(kRows + 6, 4);
    ASSERT_TRUE(WriteMatrixBinary(source_, dir_ + "/src.emat").ok());
    ASSERT_TRUE(WriteMatrixBinary(target_, dir_ + "/tgt.emat").ok());
  }

  /// An EvenSplit plan over the written files (dir_/src.<extension> and
  /// dir_/tgt.<extension>), saved to disk for the spawned shard processes
  /// to load.
  ShardPlan MakePlan(int shards, int replicas,
                     const std::string& extension = "emat") {
    Result<ShardPlan> plan = ShardPlan::EvenSplit(
        "p", dir_ + "/src." + extension, dir_ + "/tgt." + extension, "",
        kRows, shards, dir_, replicas);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_path_ = dir_ + "/plan.json";
    EXPECT_TRUE(plan->Save(plan_path_).ok());
    return std::move(plan).value();
  }

  std::string cli_path_;
  std::string dir_;
  std::string plan_path_;
  Matrix source_;
  Matrix target_;
};

TEST_F(FleetProcessTest, SpawnQueryKillFailoverAndStop) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/1);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  Status healthy = manager.WaitHealthy(20'000'000);
  ASSERT_TRUE(healthy.ok()) << healthy.ToString();

  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());
  WireRequest request;
  request.verb = WireRequest::Verb::kMatch;
  request.algorithm = AlgorithmPreset::kCsls;
  request.pair = "p";
  Result<WireResponse> answer = (*router)->Query(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  // The merged answer equals a plain in-process engine run over the union.
  Result<MatchEngine> engine = MatchEngine::Create(
      Matrix(source_), Matrix(target_), MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(engine.ok());
  Result<Assignment> solo = engine->Match();
  ASSERT_TRUE(solo.ok());
  ASSERT_EQ(answer->values.size(), solo->target_of_source.size());
  for (size_t i = 0; i < answer->values.size(); ++i) {
    EXPECT_EQ(answer->values[i], solo->target_of_source[i]) << "row " << i;
  }

  // SIGKILL shard 0: the reaper must observe the death, and reads must
  // fail over to the replica with the same bit-identical answer.
  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
  bool observed = false;
  for (int i = 0; i < 200 && !observed; ++i) {
    for (const ShardProcessStatus& status : manager.Status_()) {
      if (status.shard_id == 0 && !status.running) {
        observed = true;
        EXPECT_EQ(status.last_term_signal, SIGKILL);
      }
    }
    if (!observed) ::usleep(20'000);
  }
  EXPECT_TRUE(observed) << "reaper never observed the SIGKILL";
  Result<WireResponse> after = (*router)->Query(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->values, answer->values);
  EXPECT_GE((*router)->Stats().failovers, 1u);

  // A second kill on the dead shard reports kNotFound, not a stray signal.
  EXPECT_EQ(manager.Kill(0, SIGKILL).code(), StatusCode::kNotFound);

  router->reset();
  manager.StopAll();
  for (const ShardProcessStatus& status : manager.Status_()) {
    EXPECT_FALSE(status.running) << "shard " << status.shard_id;
  }
  EXPECT_NE(manager.StatusJson().find("\"running\": false"),
            std::string::npos);
}

// Shards read their pair through the one embedding reader, so a plan may
// name EMBF files: real shard processes boot on them and the merged answer
// equals a solo engine over the pair.
TEST_F(FleetProcessTest, ShardsBootFromEmbfFiles) {
  ASSERT_TRUE(MmapStore::Write(source_, dir_ + "/src.embf").ok());
  ASSERT_TRUE(MmapStore::Write(target_, dir_ + "/tgt.embf").ok());
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/0, "embf");
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  Status healthy = manager.WaitHealthy(20'000'000);
  ASSERT_TRUE(healthy.ok()) << healthy.ToString();

  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());
  for (const AlgorithmPreset preset :
       {AlgorithmPreset::kCsls, AlgorithmPreset::kRinf}) {
    SCOPED_TRACE(PresetName(preset));
    WireRequest request;
    request.verb = WireRequest::Verb::kMatch;
    request.algorithm = preset;
    request.pair = "p";
    Result<WireResponse> answer = (*router)->Query(request);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    Result<MatchEngine> engine =
        MatchEngine::Create(Matrix(source_), Matrix(target_),
                            MakePreset(preset));
    ASSERT_TRUE(engine.ok());
    Result<Assignment> solo = engine->Match();
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(answer->values, solo->target_of_source);
  }
  router->reset();
  manager.StopAll();
}

// Respawn: the supervisor's restart primitive. A reaped shard re-forks with
// its original argv, serves again, and the spawn/exit ledger counts every
// transition exactly once.
TEST_F(FleetProcessTest, RespawnRevivesAReapedShard) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/0);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());

  // Respawn on a RUNNING shard is refused — a restart must follow a reaped
  // exit, never race a live process.
  EXPECT_EQ(manager.Respawn(0).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
  bool reaped = false;
  for (int i = 0; i < 200 && !reaped; ++i) {
    for (const ShardProcessStatus& status : manager.Status_()) {
      if (status.shard_id == 0 && !status.running) reaped = true;
    }
    if (!reaped) ::usleep(20'000);
  }
  ASSERT_TRUE(reaped) << "reaper never observed the SIGKILL";

  Status respawned = manager.Respawn(0);
  ASSERT_TRUE(respawned.ok()) << respawned.ToString();
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  for (const ShardProcessStatus& status : manager.Status_()) {
    if (status.shard_id != 0) continue;
    EXPECT_TRUE(status.running);
    EXPECT_EQ(status.spawns, 2u);
    EXPECT_EQ(status.exits, 1u);
  }

  manager.StopAll();
  uint64_t total_exits = 0;
  for (const ShardProcessStatus& status : manager.Status_()) {
    EXPECT_FALSE(status.running) << "shard " << status.shard_id;
    total_exits += status.exits;
  }
  // 3 spawns total (2 boots + 1 respawn), 3 exits — nothing double-counted
  // by the final blocking reap.
  EXPECT_EQ(total_exits, 3u);
}

// Regression for the StopAll/reaper race window: once StopAll begins,
// Respawn is refused for good (a restart racing teardown could resurrect a
// shard after its "final" kill — or signal a recycled pid), and concurrent
// StopAll calls neither double-join the reaper nor double-reap a child.
TEST_F(FleetProcessTest, StopAllRefusesRespawnAndSurvivesConcurrentCalls) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/0);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());

  // Hammer StopAll from two threads while a third spins Respawn attempts —
  // the attempts must all be refused (running or stopping), never spawn.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> spawned_during_stop{0};
  std::thread respawner([&] {
    while (!done.load()) {
      if (manager.Respawn(0).ok()) spawned_during_stop.fetch_add(1);
    }
  });
  std::thread other([&] { manager.StopAll(); });
  manager.StopAll();
  other.join();
  done.store(true);
  respawner.join();

  EXPECT_EQ(spawned_during_stop.load(), 0u);
  uint64_t total_exits = 0;
  for (const ShardProcessStatus& status : manager.Status_()) {
    EXPECT_FALSE(status.running) << "shard " << status.shard_id;
    EXPECT_EQ(status.spawns, 1u) << "shard " << status.shard_id;
    total_exits += status.exits;
  }
  // Exactly one observed exit per child: no double-wait, no lost status.
  EXPECT_EQ(total_exits, 2u);

  // StopAll after StopAll stays a no-op, and Respawn stays refused.
  manager.StopAll();
  EXPECT_EQ(manager.Respawn(0).code(), StatusCode::kFailedPrecondition);
}

TEST_F(FleetProcessTest, WaitHealthyFailsFastWhenAShardDiesAtBoot) {
  ShardPlan plan = MakePlan(2, 0);
  // Poison shard 1's pair file path so its process exits at load.
  plan.pairs[0].source_path = dir_ + "/missing.emat";
  ASSERT_TRUE(plan.Save(plan_path_).ok());
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  Status healthy = manager.WaitHealthy(20'000'000);
  EXPECT_FALSE(healthy.ok());
  EXPECT_EQ(healthy.code(), StatusCode::kInternal);
  manager.StopAll();
}

}  // namespace
}  // namespace entmatcher
