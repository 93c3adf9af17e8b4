#include "common/fault.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace entmatcher {
namespace {

// The injector is process-global; every test leaves it disarmed.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global().Disarm();
    ::unsetenv("EM_FAULT_PLAN");
    ::unsetenv("EM_FAULT_SEED");
  }
};

TEST_F(FaultTest, ParsesMultiRulePlan) {
  Result<FaultPlan> plan = FaultPlan::Parse(
      "engine.scores:p=0.25,code=Internal,latency_us=100;"
      "socket.write:nth=7,max=3;"
      "socket.write.chunk:p=1,arg=1;"
      "engine.scores:nth=2,latency_us=50");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->rules().size(), 4u);

  const FaultRule& scores = plan->rules()[0];
  EXPECT_EQ(scores.point, "engine.scores");
  EXPECT_EQ(scores.kind, FaultKind::kStatus);
  EXPECT_DOUBLE_EQ(scores.probability, 0.25);
  EXPECT_EQ(scores.code, StatusCode::kInternal);
  EXPECT_EQ(scores.latency_micros, 100u);

  const FaultRule& write = plan->rules()[1];
  EXPECT_EQ(write.kind, FaultKind::kStatus);  // site default code
  EXPECT_EQ(write.nth, 7u);
  EXPECT_EQ(write.max_fires, 3u);
  EXPECT_FALSE(write.code.has_value());

  EXPECT_EQ(plan->rules()[2].kind, FaultKind::kParam);
  EXPECT_EQ(plan->rules()[2].arg, 1u);

  EXPECT_EQ(plan->rules()[3].kind, FaultKind::kDelay);
}

TEST_F(FaultTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("no-colon").ok());
  EXPECT_FALSE(FaultPlan::Parse("point:").ok());          // no trigger
  EXPECT_FALSE(FaultPlan::Parse("point:max=3").ok());     // no trigger
  EXPECT_FALSE(FaultPlan::Parse("point:p=1.5").ok());     // p out of range
  EXPECT_FALSE(FaultPlan::Parse("point:nth=0").ok());
  EXPECT_FALSE(FaultPlan::Parse("point:p=1,code=OK").ok());
  EXPECT_FALSE(FaultPlan::Parse("point:p=1,code=Bogus").ok());
  EXPECT_FALSE(FaultPlan::Parse("point:p=1,arg=2,code=Internal").ok());
  EXPECT_FALSE(FaultPlan::Parse("point:p=1,unknown=3").ok());
  EXPECT_TRUE(FaultPlan::Parse("").ok());  // empty plan = no rules
  EXPECT_TRUE(FaultPlan::Parse("").value().empty());
}

TEST_F(FaultTest, NthTriggerFiresDeterministically) {
  FaultInjector& injector = FaultInjector::Global();
  Result<FaultPlan> plan = FaultPlan::Parse("p:nth=3,code=IoError");
  ASSERT_TRUE(plan.ok());
  injector.Arm(std::move(plan).value(), /*seed=*/1);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(!injector.InjectedStatus("p", StatusCode::kInternal).ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST_F(FaultTest, ProbabilityTriggerIsSeedDeterministic) {
  FaultInjector& injector = FaultInjector::Global();
  auto run = [&](uint64_t seed) {
    Result<FaultPlan> plan = FaultPlan::Parse("p:p=0.5");
    EXPECT_TRUE(plan.ok());
    injector.Arm(std::move(plan).value(), seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(
          !injector.InjectedStatus("p", StatusCode::kInternal).ok());
    }
    return fired;
  };
  const std::vector<bool> a = run(7);
  const std::vector<bool> b = run(7);
  const std::vector<bool> c = run(8);
  EXPECT_EQ(a, b);        // same seed, same schedule
  EXPECT_NE(a, c);        // different seed, different schedule
  EXPECT_GT(injector.total_fires(), 0u);  // p=0.5 over 64 calls fires
}

TEST_F(FaultTest, DefaultCodeFillsInAndExplicitCodeWins) {
  FaultInjector& injector = FaultInjector::Global();
  Result<FaultPlan> plan = FaultPlan::Parse("a:nth=1;b:nth=1,code=IoError");
  ASSERT_TRUE(plan.ok());
  injector.Arm(std::move(plan).value(), 1);
  EXPECT_EQ(injector.InjectedStatus("a", StatusCode::kResourceExhausted).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(injector.InjectedStatus("b", StatusCode::kResourceExhausted).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(injector.InjectedStatus("c", StatusCode::kInternal).ok());
}

TEST_F(FaultTest, MaxFiresCapsTheRule) {
  FaultInjector& injector = FaultInjector::Global();
  Result<FaultPlan> plan = FaultPlan::Parse("p:nth=1,max=2");
  ASSERT_TRUE(plan.ok());
  injector.Arm(std::move(plan).value(), 1);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (!injector.InjectedStatus("p", StatusCode::kInternal).ok()) ++fires;
  }
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(injector.total_fires(), 2u);
}

TEST_F(FaultTest, ParamRulesAreSeparateFromStatusRules) {
  FaultInjector& injector = FaultInjector::Global();
  Result<FaultPlan> plan = FaultPlan::Parse("p:nth=1,arg=5");
  ASSERT_TRUE(plan.ok());
  injector.Arm(std::move(plan).value(), 1);
  // A param rule never injects a status, and vice versa.
  EXPECT_TRUE(injector.InjectedStatus("p", StatusCode::kInternal).ok());
  EXPECT_EQ(injector.Param("p"), 5u);
  EXPECT_EQ(injector.Param("q"), 0u);
}

TEST_F(FaultTest, DisarmRestoresFallThrough) {
  FaultInjector& injector = FaultInjector::Global();
  Result<FaultPlan> plan = FaultPlan::Parse("p:nth=1");
  ASSERT_TRUE(plan.ok());
  injector.Arm(std::move(plan).value(), 1);
  EXPECT_FALSE(injector.InjectedStatus("p", StatusCode::kInternal).ok());
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.InjectedStatus("p", StatusCode::kInternal).ok());
  EXPECT_EQ(injector.Fingerprint(), "off");
}

TEST_F(FaultTest, FingerprintIsStableAndSeedSensitive) {
  FaultInjector& injector = FaultInjector::Global();
  auto fingerprint = [&](const char* spec, uint64_t seed) {
    Result<FaultPlan> plan = FaultPlan::Parse(spec);
    EXPECT_TRUE(plan.ok());
    injector.Arm(std::move(plan).value(), seed);
    return injector.Fingerprint();
  };
  const std::string a = fingerprint("p:nth=1", 1);
  const std::string b = fingerprint("p:nth=1", 1);
  const std::string c = fingerprint("p:nth=1", 2);
  const std::string d = fingerprint("q:nth=1", 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(a.find("p:nth=1"), std::string::npos);
}

Status GuardedByTestPoint() {
  EM_INJECT_FAULT("test.point", StatusCode::kInternal);
  return Status::OK();
}

TEST_F(FaultTest, ArmFromEnvArmsAPlanThatFiresAtItsPoint) {
  EXPECT_TRUE(GuardedByTestPoint().ok());
  ::setenv("EM_FAULT_PLAN", "test.point:nth=2,code=Unavailable", 1);
  ::setenv("EM_FAULT_SEED", "99", 1);
  const Status status = ArmFaultInjectionFromEnv();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(FaultInjector::Global().armed());
  EXPECT_NE(FaultInjector::Global().Fingerprint().find(
                "test.point:nth=2,code=Unavailable"),
            std::string::npos);
  EXPECT_TRUE(GuardedByTestPoint().ok());
  const Status fired = GuardedByTestPoint();
  EXPECT_EQ(fired.code(), StatusCode::kUnavailable);
  EXPECT_NE(fired.message().find("test.point"), std::string::npos);
  EXPECT_EQ(FaultInjector::Global().total_fires(), 1u);
}

TEST_F(FaultTest, ArmFromEnvWithoutPlanIsANoOp) {
  ::unsetenv("EM_FAULT_PLAN");
  EXPECT_TRUE(ArmFaultInjectionFromEnv().ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
}

TEST_F(FaultTest, ArmFromEnvRejectsBadSeed) {
  ::setenv("EM_FAULT_PLAN", "p:nth=1", 1);
  ::setenv("EM_FAULT_SEED", "not-a-number", 1);
  EXPECT_EQ(ArmFaultInjectionFromEnv().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace entmatcher
