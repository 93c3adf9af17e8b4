#ifndef ENTMATCHER_KG_ALIGNMENT_H_
#define ENTMATCHER_KG_ALIGNMENT_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "kg/triple.h"

namespace entmatcher {

/// A gold (or predicted) correspondence between a source-KG entity and a
/// target-KG entity.
struct EntityPair {
  EntityId source;
  EntityId target;

  friend bool operator==(const EntityPair& a, const EntityPair& b) = default;
};

/// A set of alignment links with O(1) membership queries. Supports
/// non-1-to-1 link structures (one entity may participate in several links),
/// which the FB_DBP_MUL setting requires.
class AlignmentSet {
 public:
  AlignmentSet() = default;
  explicit AlignmentSet(std::vector<EntityPair> pairs);

  const std::vector<EntityPair>& pairs() const { return pairs_; }
  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  /// True iff (source, target) is a link in this set.
  bool Contains(EntityId source, EntityId target) const;

  /// All targets linked to `source` (possibly empty / multiple).
  std::vector<EntityId> TargetsOf(EntityId source) const;

  /// Distinct source entities participating in links, in first-seen order.
  std::vector<EntityId> SourceEntities() const;

  /// Distinct target entities participating in links, in first-seen order.
  std::vector<EntityId> TargetEntities() const;

  /// Number of links whose source and target each participate in exactly one
  /// link (the paper's "1-to-1 links" count for FB_DBP_MUL).
  size_t CountOneToOneLinks() const;

  /// Appends a link.
  void Add(EntityPair pair);

 private:
  std::vector<EntityPair> pairs_;
  std::unordered_multimap<EntityId, EntityId> by_source_;
  std::unordered_multimap<EntityId, EntityId> by_target_;
};

/// Train/validation/test partition of the gold links (paper: 20%/10%/70%).
struct AlignmentSplit {
  AlignmentSet train;
  AlignmentSet valid;
  AlignmentSet test;
};

/// Randomly partitions `gold` into train/valid/test with the given fractions
/// (test gets the remainder). Fails unless 0 <= train_frac + valid_frac <= 1.
Result<AlignmentSplit> SplitAlignment(const AlignmentSet& gold,
                                      double train_frac, double valid_frac,
                                      Rng* rng);

/// Partition that preserves link integrity (paper Sec. 5.2): links sharing an
/// entity on either side are kept in the same split. Operates on connected
/// components of the link bipartite graph. Fractions are met approximately
/// (component granularity).
Result<AlignmentSplit> SplitAlignmentPreservingClusters(
    const AlignmentSet& gold, double train_frac, double valid_frac, Rng* rng);

}  // namespace entmatcher

#endif  // ENTMATCHER_KG_ALIGNMENT_H_
