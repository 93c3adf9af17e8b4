#include "matching/rl_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/rng.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/greedy_one_to_one.h"
#include "nn/mlp.h"

namespace entmatcher {

namespace {

constexpr size_t kNumFeatures = 4;

// Candidate-set-restricted adjacency: neighbors[r] lists the candidate rows
// whose entities are KG-adjacent to candidate row r's entity (sorted).
std::vector<std::vector<uint32_t>> BuildCandidateGraph(
    const KnowledgeGraph& graph, const std::vector<EntityId>& candidates) {
  std::unordered_map<EntityId, uint32_t> row_of_entity;
  row_of_entity.reserve(candidates.size());
  for (size_t r = 0; r < candidates.size(); ++r) {
    row_of_entity.emplace(candidates[r], static_cast<uint32_t>(r));
  }
  std::vector<std::vector<uint32_t>> neighbors(candidates.size());
  for (size_t r = 0; r < candidates.size(); ++r) {
    for (const KnowledgeGraph::Edge& edge : graph.Neighbors(candidates[r])) {
      auto it = row_of_entity.find(edge.neighbor);
      if (it != row_of_entity.end()) neighbors[r].push_back(it->second);
    }
    std::sort(neighbors[r].begin(), neighbors[r].end());
    neighbors[r].erase(std::unique(neighbors[r].begin(), neighbors[r].end()),
                       neighbors[r].end());
  }
  return neighbors;
}

// One matching environment (train or test): scores, candidate actions, the
// coordination state, and the feature builder.
class Environment {
 public:
  Environment(const Matrix& scores,
              std::vector<std::vector<uint32_t>> src_neighbors,
              std::vector<std::vector<uint32_t>> tgt_neighbors,
              size_t num_candidates)
      : scores_(scores),
        src_neighbors_(std::move(src_neighbors)),
        tgt_neighbors_(std::move(tgt_neighbors)),
        num_candidates_(std::min(num_candidates, scores.cols())),
        row_max_(RowMax(scores)),
        col_max_(ColMax(scores)),
        candidates_(RowTopKIndices(scores, num_candidates_)) {
    Reset();
  }

  size_t num_rows() const { return scores_.rows(); }
  size_t num_candidates() const { return num_candidates_; }

  /// Rows ordered by descending best score (the confidence order in which
  /// the sequence decision visits source entities).
  std::vector<uint32_t> ConfidenceOrder() const {
    std::vector<uint32_t> order(scores_.rows());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      if (row_max_[a] != row_max_[b]) return row_max_[a] > row_max_[b];
      return a < b;
    });
    return order;
  }

  uint32_t Candidate(size_t row, size_t slot) const {
    return candidates_[row * num_candidates_ + slot];
  }

  /// Fills the policy features of (row, candidate slot).
  void Features(size_t row, size_t slot, float* out) const {
    const uint32_t j = Candidate(row, slot);
    const float s = scores_.At(row, j);
    // Note: all features are unidirectional (Table 2 classifies RL as a
    // unidirectional method) — no reverse/target-side preference is used.
    out[0] = s;
    out[1] = s - row_max_[row];  // local margin
    out[2] = Coherence(row, j);
    out[3] = taken_[j] ? 1.0f : 0.0f;  // exclusiveness signal
  }

  void Assign(size_t row, uint32_t col) {
    assigned_[row] = static_cast<int32_t>(col);
    taken_[col] = 1;
  }

  bool IsTaken(uint32_t col) const { return taken_[col] != 0; }

  void Reset() {
    assigned_.assign(scores_.rows(), -1);
    taken_.assign(scores_.cols(), 0);
  }

  const std::vector<int32_t>& assigned() const { return assigned_; }

 private:
  // Fraction of the row's already-matched KG neighbors whose chosen target
  // is KG-adjacent to candidate j.
  float Coherence(size_t row, uint32_t j) const {
    const auto& nbs = src_neighbors_[row];
    if (nbs.empty()) return 0.0f;
    const auto& tgt_adj = tgt_neighbors_[j];
    size_t matched = 0;
    size_t agree = 0;
    for (uint32_t nb : nbs) {
      const int32_t partner = assigned_[nb];
      if (partner < 0) continue;
      ++matched;
      if (std::binary_search(tgt_adj.begin(), tgt_adj.end(),
                             static_cast<uint32_t>(partner))) {
        ++agree;
      }
    }
    if (matched == 0) return 0.0f;
    return static_cast<float>(agree) / static_cast<float>(matched);
  }

  const Matrix& scores_;
  std::vector<std::vector<uint32_t>> src_neighbors_;
  std::vector<std::vector<uint32_t>> tgt_neighbors_;
  size_t num_candidates_;
  std::vector<float> row_max_;
  std::vector<float> col_max_;
  std::vector<uint32_t> candidates_;
  std::vector<int32_t> assigned_;
  std::vector<uint8_t> taken_;
};

// Softmax over logits.
std::vector<float> Softmax(const std::vector<float>& logits) {
  std::vector<float> probs(logits.size());
  float max_logit = logits[0];
  for (float l : logits) max_logit = std::max(max_logit, l);
  double sum = 0.0;
  for (size_t k = 0; k < logits.size(); ++k) {
    probs[k] = std::exp(logits[k] - max_logit);
    sum += probs[k];
  }
  for (float& p : probs) p = static_cast<float>(p / sum);
  return probs;
}

}  // namespace

Result<Assignment> RlMatch(const KgPairDataset& dataset,
                           const EmbeddingPair& embeddings,
                           const Matrix& test_scores,
                           const RlMatcherOptions& options) {
  if (test_scores.rows() != dataset.test_source_entities.size() ||
      test_scores.cols() != dataset.test_target_entities.size()) {
    return Status::InvalidArgument(
        "RlMatch: test score matrix does not match the candidate sets");
  }
  if (options.num_candidates == 0 || options.epochs == 0) {
    return Status::InvalidArgument("RlMatch: candidates/epochs must be >= 1");
  }

  // Fall back to greedy when there is nothing to train on.
  const std::vector<EntityPair>& train_links = dataset.split.train.pairs();
  if (train_links.empty()) {
    const std::vector<uint32_t> argmax = RowArgmax(test_scores);
    Assignment fallback;
    fallback.target_of_source.assign(argmax.begin(), argmax.end());
    return fallback;
  }

  // ---- Policy network. ----------------------------------------------------
  MlpConfig mlp_config;
  mlp_config.layer_sizes = {kNumFeatures, options.hidden, 1};
  mlp_config.seed = options.seed;
  mlp_config.learning_rate = options.learning_rate;
  EM_ASSIGN_OR_RETURN(Mlp policy, Mlp::Create(mlp_config));
  Rng rng(options.seed ^ 0xf00dULL);

  // ---- Training environment from the seed links. -----------------------------
  const std::vector<EntityId> train_sources = dataset.split.train.SourceEntities();
  const std::vector<EntityId> train_targets = dataset.split.train.TargetEntities();
  EM_ASSIGN_OR_RETURN(const Matrix train_src_emb,
                      ExtractRows(embeddings.source, train_sources));
  EM_ASSIGN_OR_RETURN(const Matrix train_tgt_emb,
                      ExtractRows(embeddings.target, train_targets));
  EM_ASSIGN_OR_RETURN(
      Matrix train_scores,
      ComputeSimilarity(train_src_emb, train_tgt_emb, SimilarityMetric::kCosine));

  // Gold columns per train row (multimap: non-1-to-1 links allowed).
  std::unordered_map<EntityId, uint32_t> tgt_col;
  for (size_t c = 0; c < train_targets.size(); ++c) {
    tgt_col.emplace(train_targets[c], static_cast<uint32_t>(c));
  }
  std::vector<std::vector<uint32_t>> gold_cols(train_sources.size());
  {
    std::unordered_map<EntityId, uint32_t> src_row;
    for (size_t r = 0; r < train_sources.size(); ++r) {
      src_row.emplace(train_sources[r], static_cast<uint32_t>(r));
    }
    for (const EntityPair& link : train_links) {
      gold_cols[src_row.at(link.source)].push_back(tgt_col.at(link.target));
    }
  }

  Environment train_env(
      train_scores, BuildCandidateGraph(dataset.source, train_sources),
      BuildCandidateGraph(dataset.target, train_targets), options.num_candidates);

  // ---- REINFORCE training. -----------------------------------------------------
  const std::vector<uint32_t> train_order = train_env.ConfidenceOrder();
  const size_t num_cand = train_env.num_candidates();
  std::vector<float> features(kNumFeatures);
  std::vector<float> logits(num_cand);
  double baseline = 0.0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    train_env.Reset();
    for (uint32_t row : train_order) {
      for (size_t k = 0; k < num_cand; ++k) {
        train_env.Features(row, k, features.data());
        logits[k] = policy.Forward(features)[0];
      }
      const std::vector<float> probs = Softmax(logits);
      // Sample an action.
      double cdf = 0.0;
      const double draw = rng.NextDouble();
      size_t action = num_cand - 1;
      for (size_t k = 0; k < num_cand; ++k) {
        cdf += probs[k];
        if (draw < cdf) {
          action = k;
          break;
        }
      }
      const uint32_t chosen = train_env.Candidate(row, action);
      // Reward: correctness plus the exclusiveness constraint.
      float reward = 0.0f;
      for (uint32_t g : gold_cols[row]) {
        if (g == chosen) {
          reward = 1.0f;
          break;
        }
      }
      if (train_env.IsTaken(chosen)) reward -= 0.3f;
      const float advantage = reward - static_cast<float>(baseline);
      baseline = 0.95 * baseline + 0.05 * reward;

      // Policy gradient: dL/dlogit_k = advantage * (probs_k - 1{k==action}).
      for (size_t k = 0; k < num_cand; ++k) {
        train_env.Features(row, k, features.data());
        policy.Forward(features);
        const float grad =
            advantage * (probs[k] - (k == action ? 1.0f : 0.0f));
        policy.Backward(std::span<const float>(&grad, 1));
      }
      policy.ApplyGradients();
      train_env.Assign(row, chosen);
    }
  }

  // ---- Inference on the test candidates. -------------------------------------------
  Environment test_env(
      test_scores,
      BuildCandidateGraph(dataset.source, dataset.test_source_entities),
      BuildCandidateGraph(dataset.target, dataset.test_target_entities),
      options.num_candidates);

  // Confidence pre-filter: mutual-best pairs with sufficient margin bypass
  // the RL stage.
  EM_ASSIGN_OR_RETURN(const Assignment mutual, MutualBestMatch(test_scores));
  const std::vector<int32_t>& mutual_best = mutual.target_of_source;
  std::vector<uint8_t> fixed(test_scores.rows(), 0);
  const size_t test_cand = test_env.num_candidates();
  for (size_t i = 0; i < test_scores.rows(); ++i) {
    if (mutual_best[i] == Assignment::kUnmatched) continue;
    const uint32_t j = static_cast<uint32_t>(mutual_best[i]);
    // Margin vs the second-best candidate of this row.
    float second = -std::numeric_limits<float>::infinity();
    for (size_t k = 0; k < test_cand; ++k) {
      const uint32_t cand = test_env.Candidate(i, k);
      if (cand == j) continue;
      second = std::max(second, test_scores.At(i, cand));
    }
    if (test_scores.At(i, j) - second >= options.confidence_margin) {
      test_env.Assign(i, j);
      fixed[i] = 1;
    }
  }

  // Unsupervised test-time fine-tuning ([65]'s coordination learning): roll
  // the policy over the test sequence and reward score quality, coherence
  // with prior decisions, and exclusiveness, with no gold labels involved.
  const std::vector<uint32_t> test_order = test_env.ConfidenceOrder();
  std::vector<float> test_logits(test_cand);
  double test_baseline = 0.0;
  for (size_t rollout = 0; rollout < options.test_rollouts; ++rollout) {
    // Re-seed the environment with the pre-filtered matches each rollout.
    test_env.Reset();
    for (size_t i = 0; i < test_scores.rows(); ++i) {
      if (fixed[i]) test_env.Assign(i, static_cast<uint32_t>(mutual_best[i]));
    }
    for (uint32_t row : test_order) {
      if (fixed[row]) continue;
      for (size_t k = 0; k < test_cand; ++k) {
        test_env.Features(row, k, features.data());
        test_logits[k] = policy.Forward(features)[0];
      }
      const std::vector<float> probs = Softmax(test_logits);
      double cdf = 0.0;
      const double draw = rng.NextDouble();
      size_t action = test_cand - 1;
      for (size_t k = 0; k < test_cand; ++k) {
        cdf += probs[k];
        if (draw < cdf) {
          action = k;
          break;
        }
      }
      const uint32_t chosen = test_env.Candidate(row, action);
      // Label-free reward.
      test_env.Features(row, action, features.data());
      float reward = features[1];               // local score margin (<= 0)
      reward += 0.5f * features[2];             // coherence agreement
      if (test_env.IsTaken(chosen)) reward -= 0.5f;  // exclusiveness
      const float advantage = reward - static_cast<float>(test_baseline);
      test_baseline = 0.95 * test_baseline + 0.05 * reward;
      for (size_t k = 0; k < test_cand; ++k) {
        test_env.Features(row, k, features.data());
        policy.Forward(features);
        const float grad =
            advantage * (probs[k] - (k == action ? 1.0f : 0.0f));
        policy.Backward(std::span<const float>(&grad, 1));
      }
      policy.ApplyGradients(0.2);  // smaller steps than supervised training
      test_env.Assign(row, chosen);
    }
  }

  // Greedy policy decode for the remaining sources.
  test_env.Reset();
  for (size_t i = 0; i < test_scores.rows(); ++i) {
    if (fixed[i]) test_env.Assign(i, static_cast<uint32_t>(mutual_best[i]));
  }
  for (uint32_t row : test_env.ConfidenceOrder()) {
    if (fixed[row]) continue;
    size_t best_k = 0;
    float best_logit = -std::numeric_limits<float>::infinity();
    for (size_t k = 0; k < test_cand; ++k) {
      test_env.Features(row, k, features.data());
      const float logit = policy.Forward(features)[0];
      if (logit > best_logit) {
        best_logit = logit;
        best_k = k;
      }
    }
    test_env.Assign(row, test_env.Candidate(row, best_k));
  }

  Assignment assignment;
  assignment.target_of_source = test_env.assigned();
  return assignment;
}

}  // namespace entmatcher
