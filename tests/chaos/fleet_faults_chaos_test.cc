// Injection-driven recovery chaos: arms the in-process FaultInjector against
// the two supervisor fault points — `fleet.spawn` (inside
// ShardManager::Respawn) and `fleet.rejoin.swap` (before the convergence
// swap) — and holds the supervisor to its ledger: each injected failure is
// exactly one strike of the right kind, the shard stays un-admitted until a
// clean retry lands, and the recovered fleet serves bit-identical answers.
// Needs real shard processes (EM_CLI_PATH).

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
#include "fleet/supervisor.h"
#include "la/matrix_io.h"

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

void Arm(const std::string& spec, uint64_t seed) {
  Result<FaultPlan> plan = FaultPlan::Parse(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjector::Global().Arm(std::move(plan).value(), seed);
}

class FleetFaultsChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("EM_CLI_PATH");
    if (cli == nullptr) {
      GTEST_SKIP() << "EM_CLI_PATH not set (run through ctest)";
    }
    cli_path_ = cli;
    dir_ = "/tmp/em_fleet_faults_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    source_ = RandomEmbeddings(kRows, 41);
    target_ = RandomEmbeddings(kRows + 6, 42);
    ASSERT_TRUE(WriteMatrixBinary(source_, dir_ + "/src.emat").ok());
    ASSERT_TRUE(WriteMatrixBinary(target_, dir_ + "/tgt.emat").ok());
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string cli_path_;
  std::string dir_;
  std::string plan_path_;
  Matrix source_;
  Matrix target_;
};

TEST_F(FleetFaultsChaosTest, InjectedSpawnAndRejoinFailuresRetryThenRecover) {
  Result<ShardPlan> made = ShardPlan::EvenSplit(
      "p", dir_ + "/src.emat", dir_ + "/tgt.emat", "", kRows, /*shards=*/2,
      dir_, /*replicas=*/1);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const ShardPlan plan = std::move(made).value();
  plan_path_ = dir_ + "/plan.json";
  ASSERT_TRUE(plan.Save(plan_path_).ok());

  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());

  RestartPolicy policy;
  policy.initial_backoff_micros = 10'000;
  policy.max_backoff_micros = 100'000;
  policy.boot_budget_micros = 20'000'000;
  policy.jitter_seed = 5;
  FleetSupervisor supervisor(&manager, router->get(), plan, policy);
  ASSERT_TRUE(supervisor.Start().ok());

  WireRequest request;
  request.verb = WireRequest::Verb::kMatch;
  request.algorithm = AlgorithmPreset::kCsls;
  request.pair = "p";
  const Result<WireResponse> before = (*router)->Query(request);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // First respawn attempt dies at the fault point, first convergence
  // attempt dies at its fault point; the retries (under backoff) land.
  Arm("fleet.spawn:nth=1,max=1,code=Internal;"
      "fleet.rejoin.swap:nth=1,max=1,code=Unavailable",
      /*seed=*/9);

  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
  Status recovered = supervisor.WaitRestarts(0, 1, 30'000'000);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(FaultInjector::Global().total_fires(), 2u);

  // Exactly one strike of each kind, one completed restart, no retirement.
  const std::vector<ShardRecoveryStatus> ledger = supervisor.Ledger();
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].restarts, 1u);
  EXPECT_EQ(ledger[0].spawn_failures, 1u);
  EXPECT_EQ(ledger[0].rejoin_failures, 1u);
  EXPECT_EQ(ledger[0].boot_failures, 0u);
  EXPECT_EQ(ledger[0].strikes, 2u);
  EXPECT_FALSE(ledger[0].permanently_failed);
  EXPECT_FALSE(ledger[0].recovering);

  // The recovered shard answers again, bit-identical.
  Result<WireResponse> after = (*router)->Query(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->values, before->values);
  EXPECT_EQ((*router)->Stats().version_mismatches, 0u);

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

// Strike accounting under persistent injection: rejoin failures repeat until
// the strike budget retires the shard, and the process the supervisor was
// nursing is put down rather than left serving unconverged.
TEST_F(FleetFaultsChaosTest, PersistentRejoinFaultBurnsStrikesToRetirement) {
  Result<ShardPlan> made = ShardPlan::EvenSplit(
      "p", dir_ + "/src.emat", dir_ + "/tgt.emat", "", kRows, /*shards=*/2,
      dir_, /*replicas=*/1);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const ShardPlan plan = std::move(made).value();
  plan_path_ = dir_ + "/plan.json";
  ASSERT_TRUE(plan.Save(plan_path_).ok());

  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());

  RestartPolicy policy;
  policy.max_strikes = 3;
  policy.initial_backoff_micros = 10'000;
  policy.max_backoff_micros = 50'000;
  policy.boot_budget_micros = 20'000'000;
  policy.jitter_seed = 5;
  FleetSupervisor supervisor(&manager, router->get(), plan, policy);
  ASSERT_TRUE(supervisor.Start().ok());

  // Every convergence attempt fails: the shard respawns fine but can never
  // be re-admitted, so three rejoin strikes retire it.
  Arm("fleet.rejoin.swap:p=1,code=Unavailable", /*seed=*/9);

  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
  Status verdict = supervisor.WaitRestarts(0, 1, 60'000'000);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kInternal);

  const std::vector<ShardRecoveryStatus> ledger = supervisor.Ledger();
  EXPECT_TRUE(ledger[0].permanently_failed);
  EXPECT_EQ(ledger[0].restarts, 0u);
  EXPECT_EQ(ledger[0].rejoin_failures, 3u);

  // Un-admitted throughout: the replica answered, never the half-joined
  // newcomer — and the retired shard's process is gone, not lingering.
  WireRequest request;
  request.verb = WireRequest::Verb::kMatch;
  request.algorithm = AlgorithmPreset::kCsls;
  request.pair = "p";
  Result<WireResponse> still = (*router)->Query(request);
  EXPECT_TRUE(still.ok()) << still.status().ToString();
  bool retired_shard_down = false;
  for (int i = 0; i < 200 && !retired_shard_down; ++i) {
    for (const ShardProcessStatus& status : manager.Status_()) {
      if (status.shard_id == 0 && !status.running) retired_shard_down = true;
    }
    if (!retired_shard_down) ::usleep(20'000);
  }
  EXPECT_TRUE(retired_shard_down) << "retired shard left running";

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

}  // namespace
}  // namespace entmatcher
