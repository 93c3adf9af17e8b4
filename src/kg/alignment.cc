#include "kg/alignment.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace entmatcher {

AlignmentSet::AlignmentSet(std::vector<EntityPair> pairs)
    : pairs_(std::move(pairs)) {
  by_source_.reserve(pairs_.size());
  by_target_.reserve(pairs_.size());
  for (const EntityPair& p : pairs_) {
    by_source_.emplace(p.source, p.target);
    by_target_.emplace(p.target, p.source);
  }
}

bool AlignmentSet::Contains(EntityId source, EntityId target) const {
  auto [begin, end] = by_source_.equal_range(source);
  for (auto it = begin; it != end; ++it) {
    if (it->second == target) return true;
  }
  return false;
}

std::vector<EntityId> AlignmentSet::TargetsOf(EntityId source) const {
  std::vector<EntityId> out;
  auto [begin, end] = by_source_.equal_range(source);
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

std::vector<EntityId> AlignmentSet::SourceEntities() const {
  std::vector<EntityId> out;
  std::unordered_set<EntityId> seen;
  for (const EntityPair& p : pairs_) {
    if (seen.insert(p.source).second) out.push_back(p.source);
  }
  return out;
}

std::vector<EntityId> AlignmentSet::TargetEntities() const {
  std::vector<EntityId> out;
  std::unordered_set<EntityId> seen;
  for (const EntityPair& p : pairs_) {
    if (seen.insert(p.target).second) out.push_back(p.target);
  }
  return out;
}

size_t AlignmentSet::CountOneToOneLinks() const {
  size_t count = 0;
  for (const EntityPair& p : pairs_) {
    if (by_source_.count(p.source) == 1 && by_target_.count(p.target) == 1) {
      ++count;
    }
  }
  return count;
}

void AlignmentSet::Add(EntityPair pair) {
  pairs_.push_back(pair);
  by_source_.emplace(pair.source, pair.target);
  by_target_.emplace(pair.target, pair.source);
}

namespace {

Status ValidateFractions(double train_frac, double valid_frac) {
  if (train_frac < 0.0 || valid_frac < 0.0 ||
      train_frac + valid_frac > 1.0) {
    return Status::InvalidArgument("split fractions must be in [0,1]");
  }
  return Status::OK();
}

}  // namespace

Result<AlignmentSplit> SplitAlignment(const AlignmentSet& gold,
                                      double train_frac, double valid_frac,
                                      Rng* rng) {
  EM_RETURN_NOT_OK(ValidateFractions(train_frac, valid_frac));
  std::vector<size_t> order(gold.size());
  std::iota(order.begin(), order.end(), size_t{0});
  rng->Shuffle(&order);

  const size_t n = gold.size();
  const size_t n_train = static_cast<size_t>(train_frac * n);
  const size_t n_valid = static_cast<size_t>(valid_frac * n);

  std::vector<EntityPair> train, valid, test;
  for (size_t i = 0; i < n; ++i) {
    const EntityPair& p = gold.pairs()[order[i]];
    if (i < n_train) {
      train.push_back(p);
    } else if (i < n_train + n_valid) {
      valid.push_back(p);
    } else {
      test.push_back(p);
    }
  }
  return AlignmentSplit{AlignmentSet(std::move(train)),
                        AlignmentSet(std::move(valid)),
                        AlignmentSet(std::move(test))};
}

Result<AlignmentSplit> SplitAlignmentPreservingClusters(
    const AlignmentSet& gold, double train_frac, double valid_frac, Rng* rng) {
  EM_RETURN_NOT_OK(ValidateFractions(train_frac, valid_frac));
  const size_t n = gold.size();

  // Union-find over link indices: links sharing a source or a target entity
  // are unioned.
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) { parent[find(a)] = find(b); };

  std::unordered_map<EntityId, size_t> first_by_source;
  std::unordered_map<EntityId, size_t> first_by_target;
  for (size_t i = 0; i < n; ++i) {
    const EntityPair& p = gold.pairs()[i];
    auto [sit, s_new] = first_by_source.emplace(p.source, i);
    if (!s_new) unite(i, sit->second);
    auto [tit, t_new] = first_by_target.emplace(p.target, i);
    if (!t_new) unite(i, tit->second);
  }

  // Group links by component.
  std::unordered_map<size_t, std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) components[find(i)].push_back(i);

  std::vector<std::vector<size_t>> clusters;
  clusters.reserve(components.size());
  for (auto& [root, members] : components) clusters.push_back(std::move(members));
  // Deterministic order before shuffling (unordered_map order is unspecified).
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  rng->Shuffle(&clusters);

  const size_t target_train = static_cast<size_t>(train_frac * n);
  const size_t target_valid = static_cast<size_t>(valid_frac * n);

  std::vector<EntityPair> train, valid, test;
  size_t assigned_train = 0;
  size_t assigned_valid = 0;
  for (const auto& cluster : clusters) {
    std::vector<EntityPair>* sink = &test;
    if (assigned_train + cluster.size() <= target_train + cluster.size() / 2 &&
        assigned_train < target_train) {
      sink = &train;
      assigned_train += cluster.size();
    } else if (assigned_valid < target_valid) {
      sink = &valid;
      assigned_valid += cluster.size();
    }
    for (size_t idx : cluster) sink->push_back(gold.pairs()[idx]);
  }
  return AlignmentSplit{AlignmentSet(std::move(train)),
                        AlignmentSet(std::move(valid)),
                        AlignmentSet(std::move(test))};
}

}  // namespace entmatcher
