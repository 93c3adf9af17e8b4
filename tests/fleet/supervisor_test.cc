// FleetSupervisor: RestartPolicy parsing, and the full recovery state
// machine against REAL shard processes (EM_CLI_PATH) — a SIGKILLed shard is
// quarantined, respawned, converged by the router onto the files of the
// last fleet-wide swap (also when it was the pair's only owner), and only
// then re-admitted; a shard that can never come back (its files deleted)
// burns its strike budget and permanently fails while the rest of the
// fleet keeps serving.

#include "fleet/supervisor.h"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
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

TEST(RestartPolicyTest, ParseDefaultsOffAndRoundTrip) {
  Result<RestartPolicy> defaults = RestartPolicy::Parse("");
  ASSERT_TRUE(defaults.ok());
  EXPECT_TRUE(defaults->enabled);
  EXPECT_EQ(defaults->max_strikes, 5u);

  Result<RestartPolicy> off = RestartPolicy::Parse("off");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->enabled);
  EXPECT_EQ(off->ToString(), "off");

  Result<RestartPolicy> custom = RestartPolicy::Parse(
      "max_strikes=3,backoff_us=20000,max_backoff_us=100000,multiplier=1.5,"
      "window_us=5000000,boot_budget_us=8000000,seed=42");
  ASSERT_TRUE(custom.ok()) << custom.status().ToString();
  EXPECT_EQ(custom->max_strikes, 3u);
  EXPECT_EQ(custom->initial_backoff_micros, 20000u);
  EXPECT_EQ(custom->max_backoff_micros, 100000u);
  EXPECT_DOUBLE_EQ(custom->multiplier, 1.5);
  EXPECT_EQ(custom->strike_window_micros, 5000000u);
  EXPECT_EQ(custom->boot_budget_micros, 8000000u);
  EXPECT_EQ(custom->jitter_seed, 42u);
  // ToString round-trips through Parse.
  Result<RestartPolicy> again = RestartPolicy::Parse(custom->ToString());
  ASSERT_TRUE(again.ok()) << custom->ToString();
  EXPECT_EQ(again->ToString(), custom->ToString());
}

TEST(RestartPolicyTest, ParseRefusesGarbage) {
  EXPECT_EQ(RestartPolicy::Parse("bogus_key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RestartPolicy::Parse("max_strikes").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RestartPolicy::Parse("max_strikes=0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RestartPolicy::Parse("multiplier=0.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RestartPolicy::Parse("backoff_us=9,max_backoff_us=1")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Numbers are digits only and must fit their field: strtoull used to turn
// -1 into 4294967295 strikes, truncate 4294967296 strikes to 0, turn -5 µs
// into a backoff of 18446744073709551611 µs, and accept "+3" and " 7".
TEST(RestartPolicyTest, ParseRefusesSignsSpacesAndOverflow) {
  for (const char* spec :
       {"max_strikes=-1", "max_strikes=4294967296",
        "backoff_us=-5,max_backoff_us=18446744073709551615",
        "max_strikes=+3", "max_strikes= 7", "backoff_us=+3",
        "backoff_us= 7", "seed=18446744073709551616"}) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(RestartPolicy::Parse(spec).status().code(),
              StatusCode::kInvalidArgument);
  }
  Result<RestartPolicy> largest =
      RestartPolicy::Parse("max_strikes=4294967295");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->max_strikes, 4294967295u);
}

// EM_FAULT_SEED is outside input too: a value that is not all digits
// leaves the default jitter seed (17) instead of strtoull's reading of it.
TEST(RestartPolicyTest, MalformedFaultSeedEnvKeepsTheDefaultJitterSeed) {
  Result<ShardPlan> plan = ShardPlan::EvenSplit(
      "p", "unused.src", "unused.tgt", "", /*rows=*/4, /*shards=*/1,
      "/tmp/em_seed_" + std::to_string(::getpid()), /*replicas=*/0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const char* previous = std::getenv("EM_FAULT_SEED");
  const std::string saved = previous != nullptr ? previous : "";
  const auto jitter_seed_with = [&](const char* value) {
    ::setenv("EM_FAULT_SEED", value, 1);
    return FleetSupervisor(nullptr, nullptr, *plan, RestartPolicy())
        .policy()
        .jitter_seed;
  };
  const uint64_t well_formed = jitter_seed_with("99");
  const uint64_t malformed = jitter_seed_with(" 5");
  if (previous != nullptr) {
    ::setenv("EM_FAULT_SEED", saved.c_str(), 1);
  } else {
    ::unsetenv("EM_FAULT_SEED");
  }
  EXPECT_EQ(well_formed, 99u);
  EXPECT_EQ(malformed, 17u);
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("EM_CLI_PATH");
    if (cli == nullptr) {
      GTEST_SKIP() << "EM_CLI_PATH not set (run through ctest)";
    }
    cli_path_ = cli;
    dir_ = "/tmp/em_supervisor_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    source_ = RandomEmbeddings(kRows, 3);
    target_ = RandomEmbeddings(kRows + 6, 4);
    ASSERT_TRUE(WriteMatrixBinary(source_, dir_ + "/src.emat").ok());
    ASSERT_TRUE(WriteMatrixBinary(target_, dir_ + "/tgt.emat").ok());
  }

  /// Writes a second version of the pair (src2/tgt2) and swaps the fleet
  /// onto it through `router`.
  void SwapToSecondPair(Router* router) {
    ASSERT_TRUE(
        WriteMatrixBinary(RandomEmbeddings(kRows, 21), dir_ + "/src2.emat")
            .ok());
    ASSERT_TRUE(WriteMatrixBinary(RandomEmbeddings(kRows + 6, 22),
                                  dir_ + "/tgt2.emat")
                    .ok());
    WireRequest swap;
    swap.verb = WireRequest::Verb::kSwap;
    swap.pair = "p";
    swap.source_path = dir_ + "/src2.emat";
    swap.target_path = dir_ + "/tgt2.emat";
    Result<std::string> swapped = router->Swap(swap);
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  }

  ShardPlan MakePlan(int shards, int replicas) {
    Result<ShardPlan> plan = ShardPlan::EvenSplit(
        "p", dir_ + "/src.emat", dir_ + "/tgt.emat", "", kRows, shards, dir_,
        replicas);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_path_ = dir_ + "/plan.json";
    EXPECT_TRUE(plan->Save(plan_path_).ok());
    return std::move(plan).value();
  }

  /// A snappy test policy: fast backoff, generous boot budget.
  static RestartPolicy TestPolicy() {
    RestartPolicy policy;
    policy.initial_backoff_micros = 10'000;
    policy.max_backoff_micros = 100'000;
    policy.boot_budget_micros = 20'000'000;
    policy.jitter_seed = 7;
    return policy;
  }

  static WireRequest MatchRequest() {
    WireRequest request;
    request.verb = WireRequest::Verb::kMatch;
    request.algorithm = AlgorithmPreset::kCsls;
    request.pair = "p";
    return request;
  }

  std::string cli_path_;
  std::string dir_;
  std::string plan_path_;
  Matrix source_;
  Matrix target_;
};

// The tentpole path: kill → quarantine → respawn → converge → re-admit,
// twice in a row on the same shard, with the restart ledger exact and the
// recovered fleet answering reads again with no replicas to hide behind.
TEST_F(SupervisorTest, RestartsKilledShardAndReadmitsIt) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/0);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());
  FleetSupervisor supervisor(&manager, router->get(), plan, TestPolicy());
  ASSERT_TRUE(supervisor.Start().ok());
  // Double-start is refused.
  EXPECT_EQ(supervisor.Start().code(), StatusCode::kFailedPrecondition);

  const Result<WireResponse> before = (*router)->Query(MatchRequest());
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  for (uint64_t round = 1; round <= 2; ++round) {
    ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
    Status recovered = supervisor.WaitRestarts(0, round, 30'000'000);
    ASSERT_TRUE(recovered.ok()) << recovered.ToString();
    // Re-admitted and serving: the same bit-identical answer, through the
    // restarted owner (no replicas exist to mask a dead shard 0).
    Result<WireResponse> after = (*router)->Query(MatchRequest());
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->values, before->values);
  }

  const std::vector<ShardRecoveryStatus> ledger = supervisor.Ledger();
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].restarts, 2u);
  EXPECT_FALSE(ledger[0].permanently_failed);
  EXPECT_FALSE(ledger[0].recovering);
  EXPECT_GT(ledger[0].last_restart_micros, 0u);
  EXPECT_EQ(ledger[1].restarts, 0u);
  EXPECT_EQ(supervisor.RestartLatencies().size(), 2u);
  const JsonValue status = supervisor.StatusJson();
  EXPECT_EQ(status.GetInt("restarts").value_or(-1), 2) << status.Dump();
  const JsonValue::Array* shards = status.GetArray("shards").value_or(nullptr);
  ASSERT_TRUE(shards != nullptr && shards->size() == 2u) << status.Dump();
  EXPECT_EQ((*shards)[0].GetInt("restarts").value_or(-1), 2);
  EXPECT_EQ(supervisor.WaitRestarts(99, 1, 1000).code(),
            StatusCode::kNotFound);

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

// Version-converged re-join: swap the fleet to v2, SIGKILL a shard, and the
// supervisor must drive the cold-booted newcomer (v1) to v2 BEFORE
// re-admission — reads after recovery serve the swapped snapshot from every
// shard, so the mixed-version refusal can never fire.
TEST_F(SupervisorTest, RejoinConvergesRestartedShardToSwappedVersion) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/0);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());

  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());
  FleetSupervisor supervisor(&manager, router->get(), plan, TestPolicy());
  ASSERT_TRUE(supervisor.Start().ok());

  // Fleet-wide swap onto DIFFERENT files: the v2 truth a restarted shard
  // cannot reach from the stale plan alone.
  SwapToSecondPair(router->get());
  const Result<WireResponse> v2_answer = (*router)->Query(MatchRequest());
  ASSERT_TRUE(v2_answer.ok()) << v2_answer.status().ToString();
  ASSERT_EQ(v2_answer->version, 2u);

  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
  Status recovered = supervisor.WaitRestarts(0, 1, 30'000'000);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  // The recovered fleet answers at v2, bit-identical to pre-kill, and the
  // version tag held: zero mixed-version merge refusals.
  Result<WireResponse> after = (*router)->Query(MatchRequest());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(after->values, v2_answer->values);
  EXPECT_EQ((*router)->Stats().version_mismatches, 0u);

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

// A pair whose every owner restarts has no peer left to read the fleet's
// version from: the router's record of the last converged swap alone must
// bring the newcomer back on the swapped files at v2, not on the plan's at
// v1.
TEST_F(SupervisorTest, EveryOwnerRestartedComesBackOnTheSwappedFiles) {
  const ShardPlan plan = MakePlan(/*shards=*/1, /*replicas=*/0);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());
  FleetSupervisor supervisor(&manager, router->get(), plan, TestPolicy());
  ASSERT_TRUE(supervisor.Start().ok());

  const Result<WireResponse> v1_answer = (*router)->Query(MatchRequest());
  ASSERT_TRUE(v1_answer.ok()) << v1_answer.status().ToString();
  SwapToSecondPair(router->get());
  const Result<WireResponse> v2_answer = (*router)->Query(MatchRequest());
  ASSERT_TRUE(v2_answer.ok()) << v2_answer.status().ToString();
  ASSERT_EQ(v2_answer->version, 2u);
  ASSERT_NE(v2_answer->values, v1_answer->values);

  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());
  Status recovered = supervisor.WaitRestarts(0, 1, 30'000'000);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  Result<WireResponse> after = (*router)->Query(MatchRequest());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(after->values, v2_answer->values);

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

// Strike budget: a shard whose data files vanish can respawn but never gets
// healthy; after max_strikes it is retired permanently (still quarantined)
// while WaitRestarts reports the terminal state instead of hanging.
TEST_F(SupervisorTest, UnrecoverableShardPermanentlyFailsAfterStrikes) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/1);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());

  RestartPolicy policy = TestPolicy();
  policy.max_strikes = 3;
  // A respawned process exits at load (files gone) — make the boot verdict
  // quick so three strikes land inside the test budget.
  policy.boot_budget_micros = 1'500'000;
  FleetSupervisor supervisor(&manager, router->get(), plan, policy);
  ASSERT_TRUE(supervisor.Start().ok());

  // Delete the pair files, then kill shard 0: every respawn dies at boot.
  ASSERT_EQ(::unlink((dir_ + "/src.emat").c_str()), 0);
  ASSERT_EQ(::unlink((dir_ + "/tgt.emat").c_str()), 0);
  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());

  Status verdict = supervisor.WaitRestarts(0, 1, 60'000'000);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kInternal);
  EXPECT_NE(verdict.message().find("permanently failed"), std::string::npos);

  const std::vector<ShardRecoveryStatus> ledger = supervisor.Ledger();
  EXPECT_TRUE(ledger[0].permanently_failed);
  EXPECT_EQ(ledger[0].restarts, 0u);
  EXPECT_GE(ledger[0].strikes, 3u);
  const JsonValue status = supervisor.StatusJson();
  const JsonValue::Array* shards = status.GetArray("shards").value_or(nullptr);
  ASSERT_TRUE(shards != nullptr && !shards->empty()) << status.Dump();
  const JsonValue* retired = (*shards)[0].Find("permanently_failed");
  ASSERT_NE(retired, nullptr) << status.Dump();
  EXPECT_TRUE(retired->AsBool());

  // The fleet soldiers on: shard 1 replicates every range, so reads still
  // answer around the retired shard.
  Result<WireResponse> still = (*router)->Query(MatchRequest());
  EXPECT_TRUE(still.ok()) << still.status().ToString();

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

// The default policy retires a shard that dies at every boot: each respawn
// that exits strikes as soon as the watch loop reaps it, so strikes land a
// backoff apart. Waiting out the 15 s boot budget per strike instead would
// let the oldest strike leave the 60 s window before the fifth landed, and
// the shard would be re-forked forever.
TEST_F(SupervisorTest, BootDeadShardRetiresUnderTheDefaultPolicy) {
  const ShardPlan plan = MakePlan(/*shards=*/2, /*replicas=*/1);
  ShardManager manager;
  ASSERT_TRUE(
      manager.Start(plan, ShardCommand::SelfServe(plan_path_, cli_path_))
          .ok());
  ASSERT_TRUE(manager.WaitHealthy(20'000'000).ok());
  Result<std::unique_ptr<Router>> router = Router::Create(plan, {});
  ASSERT_TRUE(router.ok());

  RestartPolicy policy;
  policy.jitter_seed = 7;
  FleetSupervisor supervisor(&manager, router->get(), plan, policy);
  ASSERT_TRUE(supervisor.Start().ok());

  ASSERT_EQ(::unlink((dir_ + "/src.emat").c_str()), 0);
  ASSERT_EQ(::unlink((dir_ + "/tgt.emat").c_str()), 0);
  ASSERT_TRUE(manager.Kill(0, SIGKILL).ok());

  // Every backoff before a strike is at most max_backoff_micros.
  const Status verdict = supervisor.WaitRestarts(
      0, 1, policy.max_strikes * policy.max_backoff_micros);
  EXPECT_EQ(verdict.code(), StatusCode::kInternal) << verdict.ToString();
  EXPECT_NE(verdict.message().find("permanently failed"), std::string::npos);
  const std::vector<ShardRecoveryStatus> ledger = supervisor.Ledger();
  EXPECT_TRUE(ledger[0].permanently_failed);
  EXPECT_EQ(ledger[0].boot_failures, policy.max_strikes);
  EXPECT_EQ(ledger[0].strikes, policy.max_strikes);

  supervisor.Stop();
  router->reset();
  manager.StopAll();
}

}  // namespace
}  // namespace entmatcher
