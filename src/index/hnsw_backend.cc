#include "index/hnsw_backend.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "common/rng.h"
#include "la/kernels/dispatch.h"

namespace entmatcher {

namespace {

// Heap comparators over the shared (score desc, id asc) total order.
// push_heap/pop_heap build a max-heap w.r.t. the comparator, so:
//   frontier (top = best still to expand):  "less" == worse
//   best     (top = worst currently kept):  "less" == better
bool FrontierLess(const std::pair<float, uint32_t>& a,
                  const std::pair<float, uint32_t>& b) {
  return CandidateBetter(b, a);
}

}  // namespace

int HnswBackend::LevelFor(uint32_t id) const {
  // One throwaway generator per id: the level is a pure function of
  // (seed, id), never of insertion history.
  Rng rng(seed_ ^ (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(id) + 1)));
  const double u = rng.NextDouble();  // [0, 1) => 1 - u in (0, 1]
  const double level = -std::log(1.0 - u) * inv_log_m_;
  if (level >= static_cast<double>(kMaxLevel)) return kMaxLevel;
  return static_cast<int>(level);
}

float HnswBackend::ScoreAgainst(const Matrix& target, const float* x,
                                uint32_t j) const {
  return LaneDot(x, target.Row(j).data(), dim_) * inv_norms_[j];
}

float HnswBackend::CosineBetween(const Matrix& target, uint32_t a,
                                 uint32_t b) const {
  return ScoreAgainst(target, target.Row(a).data(), b) * inv_norms_[a];
}

void HnswBackend::NeighborsAt(uint32_t node, int level, const uint32_t** ids,
                              size_t* count) const {
  if (level == 0) {
    *ids = neighbors0_.data() + static_cast<size_t>(node) * max_links0_;
    *count = counts0_[node];
    return;
  }
  const auto it = upper_.find(node);
  if (it == upper_.end() ||
      static_cast<size_t>(level) > it->second.size()) {
    *ids = nullptr;
    *count = 0;
    return;
  }
  const std::vector<uint32_t>& list = it->second[level - 1];
  *ids = list.data();
  *count = list.size();
}

uint32_t HnswBackend::GreedyDescend(const Matrix& target, const float* x,
                                    uint32_t entry, int level) const {
  uint32_t cur = entry;
  float cur_score = ScoreAgainst(target, x, cur);
  bool improved = true;
  while (improved) {
    improved = false;
    const uint32_t* nbrs = nullptr;
    size_t count = 0;
    NeighborsAt(cur, level, &nbrs, &count);
    for (size_t k = 0; k < count; ++k) {
      const uint32_t e = nbrs[k];
      const float s = ScoreAgainst(target, x, e);
      if (CandidateBetter({s, e}, {cur_score, cur})) {
        cur = e;
        cur_score = s;
        improved = true;
      }
    }
  }
  return cur;
}

void HnswBackend::SearchLayer(const Matrix& target, const float* x,
                              uint32_t entry, size_t ef, int level,
                              CandidateScratch* scratch) const {
  std::vector<uint32_t>& visited = scratch->visited;
  if (visited.size() < num_targets_) visited.resize(num_targets_, 0);
  if (++scratch->epoch == 0) {
    // Stamp wraparound: one O(m) clear every 2^32 queries.
    std::fill(visited.begin(), visited.end(), 0);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  auto& frontier = scratch->frontier;
  auto& best = scratch->best;
  frontier.clear();
  best.clear();

  const float entry_score = ScoreAgainst(target, x, entry);
  frontier.push_back({entry_score, entry});
  best.push_back({entry_score, entry});
  visited[entry] = epoch;

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), FrontierLess);
    const std::pair<float, uint32_t> cur = frontier.back();
    frontier.pop_back();
    // best.front() is the worst kept; once even the best frontier node is
    // worse than that, no reachable node can enter the result set.
    if (best.size() >= ef && CandidateBetter(best.front(), cur)) break;
    const uint32_t* nbrs = nullptr;
    size_t count = 0;
    NeighborsAt(cur.second, level, &nbrs, &count);
    for (size_t k = 0; k < count; ++k) {
      const uint32_t e = nbrs[k];
      if (visited[e] == epoch) continue;
      visited[e] = epoch;
      const float s = ScoreAgainst(target, x, e);
      if (best.size() < ef || CandidateBetter({s, e}, best.front())) {
        frontier.push_back({s, e});
        std::push_heap(frontier.begin(), frontier.end(), FrontierLess);
        best.push_back({s, e});
        std::push_heap(best.begin(), best.end(), CandidateBetter);
        if (best.size() > ef) {
          std::pop_heap(best.begin(), best.end(), CandidateBetter);
          best.pop_back();
        }
      }
    }
  }
}

void HnswBackend::SelectNeighbors(
    const Matrix& target, std::vector<std::pair<float, uint32_t>>* candidates,
    size_t cap) const {
  if (candidates->size() <= cap) return;
  std::vector<std::pair<float, uint32_t>> selected;
  std::vector<std::pair<float, uint32_t>> pruned;
  selected.reserve(cap);
  for (const auto& [score, e] : *candidates) {
    if (selected.size() >= cap) break;
    bool diverse = true;
    for (const auto& [kept_score, kept] : selected) {
      // e sits closer to an already-selected neighbor than to the query:
      // the selected one already covers that direction.
      if (CosineBetween(target, e, kept) > score) {
        diverse = false;
        break;
      }
    }
    (diverse ? selected : pruned).push_back({score, e});
  }
  // Backfill with the best pruned candidates so sparse neighborhoods still
  // fill their link budget (hnswlib's keepPrunedConnections).
  for (const auto& p : pruned) {
    if (selected.size() >= cap) break;
    selected.push_back(p);
  }
  *candidates = std::move(selected);
}

void HnswBackend::SetNeighbors(
    uint32_t node, int level,
    const std::vector<std::pair<float, uint32_t>>& selected) {
  if (level == 0) {
    uint32_t* slot = neighbors0_.data() + static_cast<size_t>(node) * max_links0_;
    for (size_t k = 0; k < selected.size(); ++k) slot[k] = selected[k].second;
    counts0_[node] = static_cast<uint32_t>(selected.size());
    return;
  }
  std::vector<std::vector<uint32_t>>& levels = upper_[node];
  if (levels.size() < static_cast<size_t>(level)) levels.resize(level);
  std::vector<uint32_t>& list = levels[level - 1];
  list.clear();
  for (const auto& [score, e] : selected) list.push_back(e);
}

void HnswBackend::ConnectBack(const Matrix& target, uint32_t node, uint32_t j,
                              int level) {
  const size_t cap = level == 0 ? max_links0_ : max_links_;
  const uint32_t* nbrs = nullptr;
  size_t count = 0;
  NeighborsAt(node, level, &nbrs, &count);
  if (count < cap) {
    if (level == 0) {
      neighbors0_[static_cast<size_t>(node) * max_links0_ + count] = j;
      ++counts0_[node];
    } else {
      std::vector<std::vector<uint32_t>>& levels = upper_[node];
      if (levels.size() < static_cast<size_t>(level)) levels.resize(level);
      levels[level - 1].push_back(j);
    }
    return;
  }
  // Overflow: re-select among existing links + j on node's own cosine scale.
  std::vector<std::pair<float, uint32_t>> candidates;
  candidates.reserve(count + 1);
  for (size_t k = 0; k < count; ++k) {
    candidates.push_back({CosineBetween(target, node, nbrs[k]), nbrs[k]});
  }
  candidates.push_back({CosineBetween(target, node, j), j});
  std::sort(candidates.begin(), candidates.end(), CandidateBetter);
  SelectNeighbors(target, &candidates, cap);
  SetNeighbors(node, level, candidates);
}

void HnswBackend::InsertNode(const Matrix& target, uint32_t j,
                             CandidateScratch* scratch) {
  const int node_level = LevelFor(j);
  if (max_level_ < 0) {
    entry_point_ = j;
    max_level_ = node_level;
    if (node_level > 0) upper_[j].resize(node_level);
    return;
  }
  const float* x = target.Row(j).data();
  uint32_t entry = entry_point_;
  for (int level = max_level_; level > node_level; --level) {
    entry = GreedyDescend(target, x, entry, level);
  }
  std::vector<std::pair<float, uint32_t>> candidates;
  for (int level = std::min(node_level, max_level_); level >= 0; --level) {
    SearchLayer(target, x, entry, ef_construction_, level, scratch);
    candidates.assign(scratch->best.begin(), scratch->best.end());
    // SearchLayer scored on the query-relative scale (inv_norm_j dropped
    // out); rescale to full cosine so the selection heuristic compares
    // candidate-to-query against candidate-to-candidate coherently. The
    // factor is a nonnegative constant per insert, so ordering is unchanged.
    for (auto& [score, e] : candidates) score *= inv_norms_[j];
    std::sort(candidates.begin(), candidates.end(), CandidateBetter);
    entry = candidates.front().second;
    const size_t cap = level == 0 ? max_links0_ : max_links_;
    SelectNeighbors(target, &candidates, cap);
    SetNeighbors(j, level, candidates);
    for (const auto& [score, e] : candidates) {
      ConnectBack(target, e, j, level);
    }
  }
  if (node_level > max_level_) {
    max_level_ = node_level;
    entry_point_ = j;
  }
}

Result<std::unique_ptr<HnswBackend>> HnswBackend::Build(
    const Matrix& target, size_t max_links, size_t ef_construction,
    uint64_t seed) {
  if (target.rows() == 0 || target.cols() == 0) {
    return Status::InvalidArgument("CandidateIndex: empty target embeddings");
  }
  if (max_links < 2 || max_links > 256) {
    return Status::InvalidArgument(
        "CandidateIndex: hnsw_max_links must be in [2, 256]");
  }
  if (ef_construction == 0) {
    return Status::InvalidArgument(
        "CandidateIndex: hnsw_ef_construction must be >= 1");
  }
  if (target.rows() > (1ull << 32)) {
    return Status::InvalidArgument(
        "CandidateIndex: more rows than 32-bit target ids can address");
  }
  auto index = std::unique_ptr<HnswBackend>(new HnswBackend());
  index->dim_ = target.cols();
  index->max_links_ = max_links;
  index->max_links0_ = 2 * max_links;
  index->ef_construction_ = std::max(ef_construction, index->max_links0_);
  index->seed_ = seed;
  index->inv_log_m_ = 1.0 / std::log(static_cast<double>(max_links));
  const size_t m = target.rows();
  index->inv_norms_.resize(m, 0.0f);
  index->counts0_.resize(m, 0);
  index->neighbors0_.resize(m * index->max_links0_, 0);
  for (size_t j = 0; j < m; ++j) {
    const float* row = target.Row(j).data();
    double sq = 0.0;
    for (size_t d = 0; d < index->dim_; ++d) {
      sq += static_cast<double>(row[d]) * static_cast<double>(row[d]);
    }
    const double norm = std::sqrt(sq);
    index->inv_norms_[j] = norm > 0.0 ? static_cast<float>(1.0 / norm) : 0.0f;
  }
  // Serial ascending insertion: HNSW construction is order-dependent, so a
  // fixed order is what makes builds reproducible.
  CandidateScratch scratch;
  for (size_t j = 0; j < m; ++j) {
    index->num_targets_ = j + 1;
    index->InsertNode(target, static_cast<uint32_t>(j), &scratch);
  }
  return index;
}

void HnswBackend::Collect(const Matrix& target, const float* x,
                          const ProbeParams& params, CandidateScratch* scratch,
                          std::vector<uint32_t>* out) const {
  if (num_targets_ == 0) return;
  const size_t ef = std::max<size_t>(1, params.ef_search);
  uint32_t entry = entry_point_;
  for (int level = max_level_; level > 0; --level) {
    entry = GreedyDescend(target, x, entry, level);
  }
  SearchLayer(target, x, entry, ef, 0, scratch);
  // Heap order is deterministic and the facade reranks with a total order,
  // so no sort is needed here.
  for (const auto& [score, j] : scratch->best) out->push_back(j);
}

CandidateListStats HnswBackend::Stats() const {
  CandidateListStats stats;
  stats.backend = CandidateBackendKind::kHnsw;
  stats.num_lists = static_cast<size_t>(max_level_ + 1);
  stats.num_targets = num_targets_;
  stats.min_list_size = num_targets_;
  double total = 0.0;
  for (size_t j = 0; j < num_targets_; ++j) {
    const size_t degree = counts0_[j];
    stats.min_list_size = std::min(stats.min_list_size, degree);
    stats.max_list_size = std::max(stats.max_list_size, degree);
    total += static_cast<double>(degree);
    size_t bucket = 0;
    for (size_t v = degree; v > 1; v >>= 1) ++bucket;
    if (bucket >= stats.size_histogram.size()) {
      stats.size_histogram.resize(bucket + 1, 0);
    }
    ++stats.size_histogram[bucket];
  }
  stats.mean_list_size =
      num_targets_ > 0 ? total / static_cast<double>(num_targets_) : 0.0;
  return stats;
}

Status HnswBackend::SavePayload(std::ostream& out) const {
  const uint64_t header[8] = {num_targets_,
                              dim_,
                              max_links_,
                              max_links0_,
                              ef_construction_,
                              seed_,
                              entry_point_,
                              static_cast<uint64_t>(max_level_ + 1)};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(inv_norms_.data()),
            static_cast<std::streamsize>(inv_norms_.size() * sizeof(float)));
  out.write(reinterpret_cast<const char*>(counts0_.data()),
            static_cast<std::streamsize>(counts0_.size() * sizeof(uint32_t)));
  out.write(reinterpret_cast<const char*>(neighbors0_.data()),
            static_cast<std::streamsize>(neighbors0_.size() *
                                         sizeof(uint32_t)));
  const uint64_t num_upper = upper_.size();
  out.write(reinterpret_cast<const char*>(&num_upper), sizeof(num_upper));
  for (const auto& [node, levels] : upper_) {
    const uint64_t head[2] = {node, levels.size()};
    out.write(reinterpret_cast<const char*>(head), sizeof(head));
    for (const std::vector<uint32_t>& list : levels) {
      const uint64_t count = list.size();
      out.write(reinterpret_cast<const char*>(&count), sizeof(count));
      out.write(reinterpret_cast<const char*>(list.data()),
                static_cast<std::streamsize>(count * sizeof(uint32_t)));
    }
  }
  if (!out) return Status::IoError("index payload write failed");
  return Status::OK();
}

Result<std::unique_ptr<HnswBackend>> HnswBackend::LoadPayload(
    std::istream& in, uint64_t payload_bytes, const std::string& path) {
  uint64_t header[8] = {0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) return Status::IoError("truncated index header: " + path);
  const uint64_t num_targets = header[0];
  const uint64_t dim = header[1];
  const uint64_t max_links = header[2];
  const uint64_t max_links0 = header[3];
  if (num_targets == 0 || num_targets > (1ull << 32) || dim == 0 ||
      dim > (1ull << 24) || max_links < 2 || max_links > 256 ||
      max_links0 != 2 * max_links || header[4] == 0 ||
      header[7] > static_cast<uint64_t>(kMaxLevel) + 1 || header[7] == 0) {
    return Status::IoError("implausible index shape in: " + path);
  }
  // Inverse norms, layer-0 degrees and layer-0 link slots, then the upper
  // layer count. The shape bounds above keep this sum far below 2^64.
  const uint64_t array_bytes =
      num_targets * (sizeof(float) + sizeof(uint32_t) +
                     max_links0 * sizeof(uint32_t)) +
      sizeof(uint64_t);
  if (sizeof(header) + array_bytes > payload_bytes) {
    return Status::IoError("index header declares more data than the file "
                           "holds: " + path);
  }
  auto index = std::unique_ptr<HnswBackend>(new HnswBackend());
  index->num_targets_ = static_cast<size_t>(num_targets);
  index->dim_ = static_cast<size_t>(dim);
  index->max_links_ = static_cast<size_t>(max_links);
  index->max_links0_ = static_cast<size_t>(max_links0);
  index->ef_construction_ = static_cast<size_t>(header[4]);
  index->seed_ = header[5];
  index->entry_point_ = static_cast<uint32_t>(header[6]);
  index->max_level_ = static_cast<int>(header[7]) - 1;
  index->inv_log_m_ = 1.0 / std::log(static_cast<double>(max_links));
  index->inv_norms_.resize(index->num_targets_);
  in.read(reinterpret_cast<char*>(index->inv_norms_.data()),
          static_cast<std::streamsize>(index->inv_norms_.size() *
                                       sizeof(float)));
  index->counts0_.resize(index->num_targets_);
  in.read(reinterpret_cast<char*>(index->counts0_.data()),
          static_cast<std::streamsize>(index->counts0_.size() *
                                       sizeof(uint32_t)));
  index->neighbors0_.resize(index->num_targets_ * index->max_links0_);
  in.read(reinterpret_cast<char*>(index->neighbors0_.data()),
          static_cast<std::streamsize>(index->neighbors0_.size() *
                                       sizeof(uint32_t)));
  uint64_t num_upper = 0;
  in.read(reinterpret_cast<char*>(&num_upper), sizeof(num_upper));
  if (!in) return Status::IoError("truncated index data: " + path);
  if (num_upper > num_targets) {
    return Status::IoError("corrupt graph layers in: " + path);
  }
  uint64_t prev_node = 0;
  for (uint64_t u = 0; u < num_upper; ++u) {
    uint64_t head[2] = {0, 0};
    in.read(reinterpret_cast<char*>(head), sizeof(head));
    if (!in) return Status::IoError("truncated index data: " + path);
    const uint64_t node = head[0];
    const uint64_t levels = head[1];
    if (node >= num_targets || (u > 0 && node <= prev_node) || levels == 0 ||
        levels > static_cast<uint64_t>(kMaxLevel)) {
      return Status::IoError("corrupt graph layers in: " + path);
    }
    prev_node = node;
    std::vector<std::vector<uint32_t>> lists(levels);
    for (uint64_t l = 0; l < levels; ++l) {
      uint64_t count = 0;
      in.read(reinterpret_cast<char*>(&count), sizeof(count));
      if (!in || count > max_links) {
        return Status::IoError("corrupt graph layers in: " + path);
      }
      lists[l].resize(count);
      in.read(reinterpret_cast<char*>(lists[l].data()),
              static_cast<std::streamsize>(count * sizeof(uint32_t)));
      if (!in) return Status::IoError("truncated index data: " + path);
    }
    index->upper_[static_cast<uint32_t>(node)] = std::move(lists);
  }
  if (FaultInjector::Global().Fired("index.load.corrupt")) {
    // Chaos point: flip a high bit in the entry point so the validation
    // below must catch in-memory corruption, not just truncation.
    index->entry_point_ ^= 0x80000000u;
  }
  if (index->entry_point_ >= index->num_targets_) {
    return Status::IoError("corrupt graph entry point in: " + path);
  }
  for (size_t j = 0; j < index->num_targets_; ++j) {
    if (index->counts0_[j] > index->max_links0_) {
      return Status::IoError("corrupt graph degrees in: " + path);
    }
    const uint32_t* slot =
        index->neighbors0_.data() + j * index->max_links0_;
    for (uint32_t k = 0; k < index->counts0_[j]; ++k) {
      if (slot[k] >= index->num_targets_) {
        return Status::IoError("corrupt graph links in: " + path);
      }
    }
  }
  for (const auto& [node, levels] : index->upper_) {
    for (const std::vector<uint32_t>& list : levels) {
      for (uint32_t id : list) {
        if (id >= index->num_targets_) {
          return Status::IoError("corrupt graph links in: " + path);
        }
      }
    }
  }
  return index;
}

}  // namespace entmatcher
