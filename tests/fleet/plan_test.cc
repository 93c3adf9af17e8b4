// ShardPlan contract: a plan is only accepted when its ranges tile the
// decision space exactly and every owner exists — a bad plan must die at
// load time, never as a silent routing hole at query time.

#include "fleet/plan.h"

#include <gtest/gtest.h>

namespace entmatcher {
namespace {

ShardPlan TwoShardPlan() {
  ShardPlan plan;
  plan.shards.push_back({0, "/tmp/s0.sock"});
  plan.shards.push_back({1, "/tmp/s1.sock"});
  PairSpec pair;
  pair.name = "p";
  pair.source_path = "src.emat";
  pair.target_path = "tgt.emat";
  pair.rows = 10;
  pair.ranges.push_back({0, 5, {0}});
  pair.ranges.push_back({5, 10, {1}});
  plan.pairs.push_back(std::move(pair));
  return plan;
}

TEST(ShardPlanTest, ValidPlanValidates) {
  EXPECT_TRUE(TwoShardPlan().Validate().ok());
}

TEST(ShardPlanTest, JsonRoundTrip) {
  const ShardPlan plan = TwoShardPlan();
  Result<ShardPlan> parsed = ShardPlan::FromJson(plan.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToJson().Dump(), plan.ToJson().Dump());
  EXPECT_EQ(parsed->shards.size(), 2u);
  EXPECT_EQ(parsed->pairs[0].ranges[1].begin, 5u);
  EXPECT_EQ(parsed->pairs[0].ranges[1].shards, std::vector<int>{1});
}

TEST(ShardPlanTest, RejectsWrongPlanVersion) {
  std::string json = TwoShardPlan().ToJson().Dump();
  const size_t at = json.find("\"plan_version\":1");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 16, "\"plan_version\":9");
  Result<ShardPlan> parsed = ShardPlan::FromJson(json);
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

// A shard id must be an integer in [0, INT_MAX]: 4294967297 used to load
// as shard 1, and 1.5 as shard 1. The error names the field.
TEST(ShardPlanTest, RejectsShardIdsOutsideTheIntRange) {
  const std::string valid = TwoShardPlan().ToJson().Dump();
  const struct {
    const char* from;
    const char* to;
    const char* field;
  } cases[] = {
      {"\"id\":1", "\"id\":4294967297", "shards[].id"},
      {"\"id\":1", "\"id\":2147483648", "shards[].id"},
      {"\"id\":1", "\"id\":-1", "shards[].id"},
      {"\"id\":1", "\"id\":1.5", "shards[].id"},
      {"\"id\":1", "\"id\":1e0", "shards[].id"},
      {"\"shards\":[1]", "\"shards\":[4294967297]", "ranges[].shards[]"},
      {"\"shards\":[1]", "\"shards\":[-1]", "ranges[].shards[]"},
      {"\"shards\":[1]", "\"shards\":[1.5]", "ranges[].shards[]"},
      {"\"shards\":[1]", "\"shards\":[\"1\"]", "ranges[].shards[]"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.to);
    std::string json = valid;
    const size_t at = json.find(c.from);
    ASSERT_NE(at, std::string::npos) << json;
    json.replace(at, std::string(c.from).size(), c.to);
    Result<ShardPlan> parsed = ShardPlan::FromJson(json);
    ASSERT_FALSE(parsed.ok()) << json;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(c.field), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ShardPlanTest, RejectsGapsOverlapsAndBadOwners) {
  ShardPlan gap = TwoShardPlan();
  gap.pairs[0].ranges[1].begin = 6;  // 5 is unowned
  EXPECT_FALSE(gap.Validate().ok());

  ShardPlan overlap = TwoShardPlan();
  overlap.pairs[0].ranges[1].begin = 4;
  EXPECT_FALSE(overlap.Validate().ok());

  ShardPlan shy = TwoShardPlan();
  shy.pairs[0].ranges[1].end = 9;  // does not reach rows
  EXPECT_FALSE(shy.Validate().ok());

  ShardPlan unknown_owner = TwoShardPlan();
  unknown_owner.pairs[0].ranges[0].shards = {7};
  EXPECT_FALSE(unknown_owner.Validate().ok());

  ShardPlan unowned = TwoShardPlan();
  unowned.pairs[0].ranges[0].shards.clear();
  EXPECT_FALSE(unowned.Validate().ok());

  ShardPlan twice = TwoShardPlan();
  twice.pairs[0].ranges[0].shards = {0, 0};
  EXPECT_FALSE(twice.Validate().ok());
}

TEST(ShardPlanTest, RejectsDuplicateIdsSocketsAndNames) {
  ShardPlan dup_id = TwoShardPlan();
  dup_id.shards[1].id = 0;
  EXPECT_FALSE(dup_id.Validate().ok());

  ShardPlan dup_socket = TwoShardPlan();
  dup_socket.shards[1].socket_path = dup_socket.shards[0].socket_path;
  EXPECT_FALSE(dup_socket.Validate().ok());

  ShardPlan spacey = TwoShardPlan();
  spacey.pairs[0].name = "has space";
  EXPECT_FALSE(spacey.Validate().ok());
}

TEST(ShardPlanTest, EvenSplitTilesAndReplicates) {
  Result<ShardPlan> plan = ShardPlan::EvenSplit(
      "p", "s.emat", "t.emat", "", /*rows=*/10, /*num_shards=*/4, "/tmp",
      /*replicas=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PairSpec& pair = plan->pairs[0];
  ASSERT_EQ(pair.ranges.size(), 4u);
  // 10 rows over 4 shards: 3,3,2,2.
  EXPECT_EQ(pair.ranges[0].end - pair.ranges[0].begin, 3u);
  EXPECT_EQ(pair.ranges[1].end - pair.ranges[1].begin, 3u);
  EXPECT_EQ(pair.ranges[2].end - pair.ranges[2].begin, 2u);
  EXPECT_EQ(pair.ranges[3].end - pair.ranges[3].begin, 2u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(pair.ranges[i].shards.size(), 2u) << "range " << i;
    EXPECT_EQ(pair.ranges[i].shards[0], static_cast<int>(i));
    EXPECT_EQ(pair.ranges[i].shards[1], static_cast<int>((i + 1) % 4));
  }
  // Every shard owns something (round-robin replicas).
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(plan->PairsOwnedBy(id), std::vector<std::string>{"p"});
  }
}

TEST(ShardPlanTest, EvenSplitRejectsDegenerateShapes) {
  EXPECT_FALSE(
      ShardPlan::EvenSplit("p", "s", "t", "", 2, 4, "/tmp", 0).ok());
  EXPECT_FALSE(
      ShardPlan::EvenSplit("p", "s", "t", "", 10, 0, "/tmp", 0).ok());
  EXPECT_FALSE(
      ShardPlan::EvenSplit("p", "s", "t", "", 10, 2, "/tmp", 2).ok());
}

TEST(ShardPlanTest, Lookups) {
  const ShardPlan plan = TwoShardPlan();
  EXPECT_NE(plan.FindShard(1), nullptr);
  EXPECT_EQ(plan.FindShard(9), nullptr);
  EXPECT_NE(plan.FindPair("p"), nullptr);
  EXPECT_EQ(plan.FindPair("q"), nullptr);
  EXPECT_EQ(plan.PairsOwnedBy(0), std::vector<std::string>{"p"});
  EXPECT_TRUE(plan.PairsOwnedBy(9).empty());
}

}  // namespace
}  // namespace entmatcher
