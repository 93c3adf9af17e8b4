#include "matching/snapshot.h"

#include <utility>

#include "common/fault.h"
#include "index/candidate_index.h"

namespace entmatcher {

namespace {

size_t MetricSlot(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kCosine:
      return 0;
    case SimilarityMetric::kNegEuclidean:
      return 1;
    case SimilarityMetric::kNegManhattan:
      return 2;
  }
  return 0;
}

}  // namespace

Result<std::shared_ptr<PairSnapshot>> PairSnapshot::Build(Matrix source,
                                                          Matrix target) {
  if (source.rows() == 0 || target.rows() == 0) {
    return Status::InvalidArgument("PairSnapshot: empty embedding matrix");
  }
  if (source.cols() != target.cols()) {
    return Status::InvalidArgument(
        "PairSnapshot: embedding dimensions differ");
  }
  auto core = std::make_shared<Core>();
  core->source = std::move(source);
  core->target = std::move(target);
  return std::shared_ptr<PairSnapshot>(
      new PairSnapshot(std::move(core), nullptr));
}

std::shared_ptr<PairSnapshot> PairSnapshot::WithIndex(
    std::shared_ptr<const CandidateIndex> index) const {
  return std::shared_ptr<PairSnapshot>(
      new PairSnapshot(core_, std::move(index)));
}

const SimilarityCache& PairSnapshot::EnsureCache(
    SimilarityMetric metric) const {
  const size_t slot = MetricSlot(metric);
  std::call_once(core_->cache_once[slot], [&] {
    core_->caches[slot] =
        BuildSimilarityCache(core_->source, core_->target, metric);
  });
  return *core_->caches[slot];
}

Result<uint64_t> SnapshotRegistry::Publish(
    const std::string& name, std::shared_ptr<PairSnapshot> snapshot,
    uint64_t min_version) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("SnapshotRegistry: null snapshot");
  }
  // Chaos point: a publish that fails here has not touched the registry —
  // the previous snapshot keeps serving, which is exactly the contract a
  // failed hot swap must honor.
  EM_INJECT_FAULT("snapshot.publish", StatusCode::kUnavailable);
  // Declared before the lock so the displaced version, if this was its last
  // reference, is destroyed after unlocking.
  std::shared_ptr<const PairSnapshot> displaced;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const PairSnapshot>& slot = current_[name];
    version = (slot != nullptr ? slot->version() : 0) + 1;
    if (version < min_version) version = min_version;
    snapshot->version_ = version;
    displaced = std::move(slot);
    slot = std::move(snapshot);
  }
  return version;
}

std::shared_ptr<const PairSnapshot> SnapshotRegistry::Acquire(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = current_.find(name);
  return it != current_.end() ? it->second : nullptr;
}

std::vector<std::string> SnapshotRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(current_.size());
  for (const auto& [name, snapshot] : current_) names.push_back(name);
  return names;
}

}  // namespace entmatcher
