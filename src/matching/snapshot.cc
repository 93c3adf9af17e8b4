#include "matching/snapshot.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "common/fault.h"
#include "index/candidate_index.h"
#include "la/topk.h"

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

Result<std::span<const float>> PairSnapshot::EnsureColumnStatistic(
    SimilarityMetric metric, ColumnStatistic statistic, size_t k,
    Matrix* tile) const {
  const bool max = statistic == ColumnStatistic::kMax;
  if (!max && k == 0) {
    return Status::InvalidArgument("column top-k mean: k must be >= 1");
  }
  const Matrix& source = core_->source;
  const size_t n = source.rows();
  const size_t m = core_->target.rows();
  assert(tile->rows() > 0 && tile->cols() == m);
  // Held through the build: first users of any statistic wait for it.
  std::lock_guard<std::mutex> lock(core_->statistics_mu);
  const auto key = std::make_tuple(MetricSlot(metric), statistic, max ? 0 : k);
  auto it = core_->statistics.find(key);
  if (it == core_->statistics.end()) {
    const SimilarityCache& cache = EnsureCache(metric);
    std::vector<float> maxima(max ? m : 0,
                              -std::numeric_limits<float>::infinity());
    ColumnTopKHeaps heaps(std::vector<size_t>(max ? 0 : m, std::min(k, n)));
    for (size_t begin = 0; begin < n; begin += tile->rows()) {
      const size_t end = std::min(n, begin + tile->rows());
      Matrix block = Matrix::Borrowed(tile->data(), end - begin, m);
      EM_RETURN_NOT_OK(ComputeSimilarityRange(source, core_->target, metric,
                                              cache, begin, end, &block));
      if (max) {
        AccumulateColMax(block, maxima);
      } else {
        heaps.OfferRows(block);
      }
    }
    it = core_->statistics
             .emplace(key, max ? std::move(maxima) : heaps.Means())
             .first;
  }
  return std::span<const float>(it->second);
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
