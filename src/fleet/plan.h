#ifndef ENTMATCHER_FLEET_PLAN_H_
#define ENTMATCHER_FLEET_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace entmatcher {

/// One shard process: where it listens.
struct ShardSpec {
  int id = 0;
  std::string socket_path;
};

/// One contiguous block of a pair's source rows and the shards that answer
/// it. The first listed shard is the range's primary; the rest are replicas
/// in failover/hedging order.
struct RangeSpec {
  size_t begin = 0;
  size_t end = 0;
  std::vector<int> shards;
};

/// One served embedding pair: the files every owning shard loads, the row
/// count the ranges must tile, and the range → shard assignment.
///
/// Sharding contract: every shard owning ANY range of a pair loads the FULL
/// pair. The paper's score transforms (CSLS, RInf) are globally normalized —
/// a row's transformed scores depend on every other row — so slicing the
/// data per shard would change answers. Ranges therefore partition the
/// *decision space* (which rows a shard answers for), not the data: each
/// shard answers its rows bit-identically to those rows of a full run
/// (MatchEngine row-range queries), which is why router-merged answers are
/// bit-identical to a single-process run by construction, for every
/// preset. A row-local preset scores only the shard's rows, so the fleet's
/// work per query is one pair's; the others score the full pair on every
/// shard. What does not scale with shard count is per-shard memory.
struct PairSpec {
  std::string name;
  std::string source_path;
  std::string target_path;
  std::string index_path;  // optional candidate index
  size_t rows = 0;
  std::vector<RangeSpec> ranges;
};

/// The versioned fleet layout: which shard processes exist and which source
/// rows of which pairs each one answers. Serialized as JSON (see
/// ShardPlan::ToJson for the exact shape) so plans are diffable, and
/// validated on load: unique shard ids and pair names, ranges sorted,
/// non-overlapping and tiling [0, rows), every referenced shard defined,
/// every range owned by at least one shard.
struct ShardPlan {
  /// Format version of the plan file itself (not the wire protocol).
  static constexpr int kPlanVersion = 1;

  std::vector<ShardSpec> shards;
  std::vector<PairSpec> pairs;

  /// Parses + validates a JSON plan document.
  static Result<ShardPlan> FromJson(const std::string& json);

  /// Reads + parses + validates a plan file.
  static Result<ShardPlan> Load(const std::string& path);

  /// Structural validation (also run by FromJson/Load).
  Status Validate() const;

  /// The plan as a JSON document (its Dump() round-trips through FromJson).
  JsonValue ToJson() const;

  /// Writes ToJson().Dump() to `path`.
  Status Save(const std::string& path) const;

  /// The shard with `id`, or nullptr.
  const ShardSpec* FindShard(int id) const;

  /// The pair named `name`, or nullptr.
  const PairSpec* FindPair(const std::string& name) const;

  /// Pair names shard `id` owns at least one range of — the pairs that
  /// shard's process must load (fully; see PairSpec).
  std::vector<std::string> PairsOwnedBy(int id) const;

  /// An evenly split single-pair plan: `num_shards` shards on
  /// `socket_dir/shard<i>.sock`, rows split into num_shards contiguous
  /// ranges, range i primary on shard i with `replicas` extra owners
  /// (wrapping round-robin). The builder behind `fleet plan` and the tests.
  static Result<ShardPlan> EvenSplit(const std::string& pair_name,
                                     const std::string& source_path,
                                     const std::string& target_path,
                                     const std::string& index_path,
                                     size_t rows, int num_shards,
                                     const std::string& socket_dir,
                                     int replicas = 0);
};

}  // namespace entmatcher

#endif  // ENTMATCHER_FLEET_PLAN_H_
