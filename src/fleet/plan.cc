#include "fleet/plan.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json.h"

namespace entmatcher {

namespace {

Result<RangeSpec> RangeFromJson(const JsonValue& value) {
  RangeSpec range;
  EM_ASSIGN_OR_RETURN(const int64_t begin, value.GetInt("begin"));
  EM_ASSIGN_OR_RETURN(const int64_t end, value.GetInt("end"));
  if (begin < 0 || end < 0) {
    return Status::InvalidArgument("plan: negative range bound");
  }
  range.begin = static_cast<size_t>(begin);
  range.end = static_cast<size_t>(end);
  EM_ASSIGN_OR_RETURN(const JsonValue::Array* shards,
                      value.GetArray("shards"));
  for (const JsonValue& shard : *shards) {
    if (!shard.is_number()) {
      return Status::InvalidArgument("plan: range shard ids must be numbers");
    }
    range.shards.push_back(static_cast<int>(shard.AsInt()));
  }
  return range;
}

JsonValue RangeToJson(const RangeSpec& range) {
  JsonValue::Object out;
  out["begin"] = JsonValue(static_cast<int64_t>(range.begin));
  out["end"] = JsonValue(static_cast<int64_t>(range.end));
  JsonValue::Array shards;
  for (int id : range.shards) shards.push_back(JsonValue(id));
  out["shards"] = JsonValue(std::move(shards));
  return JsonValue(std::move(out));
}

}  // namespace

Result<ShardPlan> ShardPlan::FromJson(const std::string& json) {
  EM_ASSIGN_OR_RETURN(const JsonValue doc, JsonValue::Parse(json));
  if (!doc.is_object()) {
    return Status::InvalidArgument("plan: document is not a JSON object");
  }
  EM_ASSIGN_OR_RETURN(const int64_t plan_version, doc.GetInt("plan_version"));
  if (plan_version != kPlanVersion) {
    return Status::FailedPrecondition(
        "plan: plan_version " + std::to_string(plan_version) +
        " is not the supported v" + std::to_string(kPlanVersion));
  }
  ShardPlan plan;
  EM_ASSIGN_OR_RETURN(const JsonValue::Array* shards, doc.GetArray("shards"));
  for (const JsonValue& entry : *shards) {
    ShardSpec shard;
    EM_ASSIGN_OR_RETURN(const int64_t id, entry.GetInt("id"));
    shard.id = static_cast<int>(id);
    EM_ASSIGN_OR_RETURN(shard.socket_path, entry.GetString("socket"));
    plan.shards.push_back(std::move(shard));
  }
  EM_ASSIGN_OR_RETURN(const JsonValue::Array* pairs, doc.GetArray("pairs"));
  for (const JsonValue& entry : *pairs) {
    PairSpec pair;
    EM_ASSIGN_OR_RETURN(pair.name, entry.GetString("name"));
    EM_ASSIGN_OR_RETURN(pair.source_path, entry.GetString("source"));
    EM_ASSIGN_OR_RETURN(pair.target_path, entry.GetString("target"));
    EM_ASSIGN_OR_RETURN(pair.index_path, entry.GetStringOr("index", ""));
    EM_ASSIGN_OR_RETURN(const int64_t rows, entry.GetInt("rows"));
    if (rows <= 0) {
      return Status::InvalidArgument("plan: pair '" + pair.name +
                                     "' needs rows >= 1");
    }
    pair.rows = static_cast<size_t>(rows);
    EM_ASSIGN_OR_RETURN(const JsonValue::Array* ranges,
                        entry.GetArray("ranges"));
    for (const JsonValue& range : *ranges) {
      EM_ASSIGN_OR_RETURN(RangeSpec parsed, RangeFromJson(range));
      pair.ranges.push_back(std::move(parsed));
    }
    plan.pairs.push_back(std::move(pair));
  }
  EM_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Result<ShardPlan> ShardPlan::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("plan: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<ShardPlan> plan = FromJson(buffer.str());
  if (!plan.ok()) {
    return Status(plan.status().code(),
                  path + ": " + plan.status().message());
  }
  return plan;
}

Status ShardPlan::Validate() const {
  if (shards.empty()) return Status::InvalidArgument("plan: no shards");
  std::set<int> shard_ids;
  std::set<std::string> sockets;
  for (const ShardSpec& shard : shards) {
    if (shard.id < 0) {
      return Status::InvalidArgument("plan: negative shard id " +
                                     std::to_string(shard.id));
    }
    if (!shard_ids.insert(shard.id).second) {
      return Status::InvalidArgument("plan: duplicate shard id " +
                                     std::to_string(shard.id));
    }
    if (shard.socket_path.empty() ||
        !sockets.insert(shard.socket_path).second) {
      return Status::InvalidArgument("plan: shard " +
                                     std::to_string(shard.id) +
                                     " has an empty or duplicate socket path");
    }
  }
  if (pairs.empty()) return Status::InvalidArgument("plan: no pairs");
  std::set<std::string> pair_names;
  for (const PairSpec& pair : pairs) {
    if (pair.name.empty() ||
        pair.name.find_first_of(" \n") != std::string::npos) {
      return Status::InvalidArgument(
          "plan: pair names must be non-empty and free of spaces/newlines");
    }
    if (!pair_names.insert(pair.name).second) {
      return Status::InvalidArgument("plan: duplicate pair name '" +
                                     pair.name + "'");
    }
    if (pair.source_path.empty() || pair.target_path.empty()) {
      return Status::InvalidArgument("plan: pair '" + pair.name +
                                     "' needs source and target paths");
    }
    if (pair.rows == 0) {
      return Status::InvalidArgument("plan: pair '" + pair.name +
                                     "' needs rows >= 1");
    }
    if (pair.ranges.empty()) {
      return Status::InvalidArgument("plan: pair '" + pair.name +
                                     "' has no ranges");
    }
    size_t expected_begin = 0;
    for (const RangeSpec& range : pair.ranges) {
      if (range.begin != expected_begin) {
        return Status::InvalidArgument(
            "plan: pair '" + pair.name + "' ranges must be sorted and tile [0, " +
            std::to_string(pair.rows) + ") without gaps or overlaps; range " +
            std::to_string(range.begin) + ":" + std::to_string(range.end) +
            " does not start at " + std::to_string(expected_begin));
      }
      if (range.end <= range.begin || range.end > pair.rows) {
        return Status::InvalidArgument(
            "plan: pair '" + pair.name + "' range " +
            std::to_string(range.begin) + ":" + std::to_string(range.end) +
            " is empty or exceeds rows=" + std::to_string(pair.rows));
      }
      if (range.shards.empty()) {
        return Status::InvalidArgument("plan: pair '" + pair.name +
                                       "' has an unowned range");
      }
      std::set<int> owners;
      for (int id : range.shards) {
        if (shard_ids.count(id) == 0) {
          return Status::InvalidArgument(
              "plan: pair '" + pair.name + "' references undefined shard " +
              std::to_string(id));
        }
        if (!owners.insert(id).second) {
          return Status::InvalidArgument(
              "plan: pair '" + pair.name + "' lists shard " +
              std::to_string(id) + " twice for one range");
        }
      }
      expected_begin = range.end;
    }
    if (expected_begin != pair.rows) {
      return Status::InvalidArgument(
          "plan: pair '" + pair.name + "' ranges cover [0, " +
          std::to_string(expected_begin) + ") but rows=" +
          std::to_string(pair.rows));
    }
  }
  return Status::OK();
}

JsonValue ShardPlan::ToJson() const {
  JsonValue::Object doc;
  doc["plan_version"] = JsonValue(kPlanVersion);
  JsonValue::Array shard_entries;
  for (const ShardSpec& shard : shards) {
    JsonValue::Object entry;
    entry["id"] = JsonValue(shard.id);
    entry["socket"] = JsonValue(shard.socket_path);
    shard_entries.push_back(JsonValue(std::move(entry)));
  }
  doc["shards"] = JsonValue(std::move(shard_entries));
  JsonValue::Array pair_entries;
  for (const PairSpec& pair : pairs) {
    JsonValue::Object entry;
    entry["name"] = JsonValue(pair.name);
    entry["source"] = JsonValue(pair.source_path);
    entry["target"] = JsonValue(pair.target_path);
    if (!pair.index_path.empty()) entry["index"] = JsonValue(pair.index_path);
    entry["rows"] = JsonValue(static_cast<int64_t>(pair.rows));
    JsonValue::Array ranges;
    for (const RangeSpec& range : pair.ranges) {
      ranges.push_back(RangeToJson(range));
    }
    entry["ranges"] = JsonValue(std::move(ranges));
    pair_entries.push_back(JsonValue(std::move(entry)));
  }
  doc["pairs"] = JsonValue(std::move(pair_entries));
  return JsonValue(std::move(doc));
}

Status ShardPlan::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("plan: cannot write " + path);
  out << ToJson().Dump() << "\n";
  out.flush();
  if (!out) return Status::IoError("plan: write to " + path + " failed");
  return Status::OK();
}

const ShardSpec* ShardPlan::FindShard(int id) const {
  for (const ShardSpec& shard : shards) {
    if (shard.id == id) return &shard;
  }
  return nullptr;
}

const PairSpec* ShardPlan::FindPair(const std::string& name) const {
  for (const PairSpec& pair : pairs) {
    if (pair.name == name) return &pair;
  }
  return nullptr;
}

std::vector<std::string> ShardPlan::PairsOwnedBy(int id) const {
  std::vector<std::string> owned;
  for (const PairSpec& pair : pairs) {
    for (const RangeSpec& range : pair.ranges) {
      if (std::find(range.shards.begin(), range.shards.end(), id) !=
          range.shards.end()) {
        owned.push_back(pair.name);
        break;
      }
    }
  }
  return owned;
}

Result<ShardPlan> ShardPlan::EvenSplit(const std::string& pair_name,
                                       const std::string& source_path,
                                       const std::string& target_path,
                                       const std::string& index_path,
                                       size_t rows, int num_shards,
                                       const std::string& socket_dir,
                                       int replicas) {
  if (num_shards < 1) {
    return Status::InvalidArgument("plan: num_shards must be >= 1");
  }
  if (rows < static_cast<size_t>(num_shards)) {
    return Status::InvalidArgument(
        "plan: cannot split " + std::to_string(rows) + " rows across " +
        std::to_string(num_shards) + " shards");
  }
  if (replicas < 0 || replicas >= num_shards) {
    return Status::InvalidArgument(
        "plan: replicas must be in [0, num_shards)");
  }
  ShardPlan plan;
  for (int i = 0; i < num_shards; ++i) {
    ShardSpec shard;
    shard.id = i;
    shard.socket_path =
        socket_dir + "/shard" + std::to_string(i) + ".sock";
    plan.shards.push_back(std::move(shard));
  }
  PairSpec pair;
  pair.name = pair_name;
  pair.source_path = source_path;
  pair.target_path = target_path;
  pair.index_path = index_path;
  pair.rows = rows;
  const size_t base = rows / static_cast<size_t>(num_shards);
  const size_t extra = rows % static_cast<size_t>(num_shards);
  size_t begin = 0;
  for (int i = 0; i < num_shards; ++i) {
    RangeSpec range;
    range.begin = begin;
    range.end = begin + base + (static_cast<size_t>(i) < extra ? 1 : 0);
    begin = range.end;
    for (int r = 0; r <= replicas; ++r) {
      range.shards.push_back((i + r) % num_shards);
    }
    pair.ranges.push_back(std::move(range));
  }
  plan.pairs.push_back(std::move(pair));
  EM_RETURN_NOT_OK(plan.Validate());
  return plan;
}

}  // namespace entmatcher
