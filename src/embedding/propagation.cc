#include "embedding/propagation.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "la/similarity.h"

namespace entmatcher {

namespace {

// Small-magnitude Gaussian rows. Anchor rows are overwritten with unit
// vectors afterwards, so the anchor signal dominates the propagation while
// non-anchor entities start as low-amplitude noise (label-propagation
// style): the direction of a propagated vector is then mostly determined by
// the mixture of anchors reachable through the KG structure.
Matrix InitFeatures(size_t n, size_t dim, float noise_scale, Rng* rng) {
  Matrix h(n, dim);
  const float scale =
      noise_scale / std::sqrt(static_cast<float>(dim));
  for (size_t i = 0; i < n; ++i) {
    auto row = h.Row(i);
    for (float& v : row) {
      v = scale * static_cast<float>(rng->NextGaussian());
    }
  }
  return h;
}

// Writes one shared random unit vector into both sides of each anchor pair.
// If an entity participates in several anchors the last write wins.
void ApplyAnchors(const std::vector<EntityPair>& anchors, Matrix* h_src,
                  Matrix* h_tgt, Rng* rng) {
  const size_t dim = h_src->cols();
  std::vector<float> shared(dim);
  for (const EntityPair& pair : anchors) {
    double sq = 0.0;
    for (float& v : shared) {
      v = static_cast<float>(rng->NextGaussian());
      sq += static_cast<double>(v) * v;
    }
    const float inv = sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(sq)) : 0.0f;
    for (float& v : shared) v *= inv;
    std::memcpy(h_src->Row(pair.source).data(), shared.data(),
                dim * sizeof(float));
    std::memcpy(h_tgt->Row(pair.target).data(), shared.data(),
                dim * sizeof(float));
  }
}

// Per-relation aggregation weights: rare relations are more discriminative.
std::vector<float> RelationWeights(const KnowledgeGraph& graph, bool enabled) {
  std::vector<float> w(graph.num_relations(), 1.0f);
  if (!enabled) return w;
  const std::vector<size_t> freq = graph.RelationFrequencies();
  for (size_t r = 0; r < w.size(); ++r) {
    w[r] = 1.0f / std::log2(2.0f + static_cast<float>(freq[r]));
  }
  return w;
}

// One KG's propagation. Returns the last layer, or the concatenation of all
// layer outputs when config.concat_layers is set. `anchor_rows` lists
// entities whose vectors are clamped back to their initial (shared anchor)
// value after every layer, so the supervision signal never dilutes.
Matrix Propagate(const KnowledgeGraph& graph, const Matrix& h0,
                 const std::vector<EntityId>& anchor_rows,
                 const PropagationConfig& config) {
  const size_t n = graph.num_entities();
  const size_t dim = config.dim;
  const std::vector<float> rel_w =
      RelationWeights(graph, config.relation_weighting);

  Matrix h = h0;
  Matrix concat;
  if (config.concat_layers) {
    concat = Matrix(n, dim * config.layers);
  }

  Matrix next(n, dim);
  const float alpha = static_cast<float>(config.self_weight);
  for (size_t layer = 0; layer < config.layers; ++layer) {
    for (size_t e = 0; e < n; ++e) {
      auto out = next.Row(e);
      std::fill(out.begin(), out.end(), 0.0f);
      float total_w = 0.0f;
      for (const KnowledgeGraph::Edge& edge :
           graph.Neighbors(static_cast<EntityId>(e))) {
        const float w = rel_w[edge.relation];
        total_w += w;
        const float* nb = h.Row(edge.neighbor).data();
        for (size_t k = 0; k < dim; ++k) out[k] += w * nb[k];
      }
      const float* self = h.Row(e).data();
      if (total_w > 0.0f) {
        const float inv = (1.0f - alpha) / total_w;
        for (size_t k = 0; k < dim; ++k) {
          out[k] = alpha * self[k] + inv * out[k];
        }
      } else {
        std::memcpy(out.data(), self, dim * sizeof(float));
      }
    }
    // No per-layer normalization: renormalizing rows would re-amplify the
    // low-amplitude noise of entities far from any anchor. Cosine matching
    // is scale-invariant, so only the final output is normalized.
    std::swap(h, next);
    // Clamp anchors: seed entities keep their shared unit vectors so deeper
    // layers keep receiving undiluted supervision.
    if (config.clamp_anchors) {
      for (EntityId a : anchor_rows) {
        std::memcpy(h.Row(a).data(), h0.Row(a).data(), dim * sizeof(float));
      }
    }
    if (config.concat_layers) {
      for (size_t e = 0; e < n; ++e) {
        std::memcpy(concat.Row(e).data() + layer * dim, h.Row(e).data(),
                    dim * sizeof(float));
      }
    }
  }
  if (config.concat_layers) {
    L2NormalizeRows(&concat);
    return concat;
  }
  L2NormalizeRows(&h);
  return h;
}

// Mutual-nearest high-margin pairs among the test candidates; these become
// pseudo-anchors for the next bootstrap round.
std::vector<EntityPair> FindPseudoAnchors(const KgPairDataset& dataset,
                                          const EmbeddingPair& embeddings,
                                          double margin) {
  const auto& src_ids = dataset.test_source_entities;
  const auto& tgt_ids = dataset.test_target_entities;
  if (src_ids.empty() || tgt_ids.empty()) return {};
  Result<Matrix> src = ExtractRows(embeddings.source, src_ids);
  Result<Matrix> tgt = ExtractRows(embeddings.target, tgt_ids);
  if (!src.ok() || !tgt.ok()) return {};
  Result<Matrix> sim = ComputeSimilarity(*src, *tgt, SimilarityMetric::kCosine);
  if (!sim.ok()) return {};
  const Matrix& s = *sim;
  const size_t n = s.rows();
  const size_t m = s.cols();

  // Row and column best/second-best.
  std::vector<uint32_t> row_best(n);
  std::vector<float> row_margin(n);
  for (size_t i = 0; i < n; ++i) {
    auto row = s.Row(i);
    float best = -2.0f, second = -2.0f;
    uint32_t best_j = 0;
    for (size_t j = 0; j < m; ++j) {
      if (row[j] > best) {
        second = best;
        best = row[j];
        best_j = static_cast<uint32_t>(j);
      } else if (row[j] > second) {
        second = row[j];
      }
    }
    row_best[i] = best_j;
    row_margin[i] = best - second;
  }
  std::vector<uint32_t> col_best(m, 0);
  std::vector<float> col_best_val(m, -2.0f);
  std::vector<float> col_second_val(m, -2.0f);
  for (size_t i = 0; i < n; ++i) {
    auto row = s.Row(i);
    for (size_t j = 0; j < m; ++j) {
      if (row[j] > col_best_val[j]) {
        col_second_val[j] = col_best_val[j];
        col_best_val[j] = row[j];
        col_best[j] = static_cast<uint32_t>(i);
      } else if (row[j] > col_second_val[j]) {
        col_second_val[j] = row[j];
      }
    }
  }

  std::vector<EntityPair> pseudo;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t j = row_best[i];
    if (col_best[j] != i) continue;  // not mutual
    if (row_margin[i] < margin) continue;
    if (col_best_val[j] - col_second_val[j] < margin) continue;
    pseudo.push_back(EntityPair{src_ids[i], tgt_ids[j]});
  }
  return pseudo;
}

}  // namespace

PropagationConfig GcnModelConfig(uint64_t seed) {
  PropagationConfig c;
  c.dim = 64;
  c.layers = 2;
  c.self_weight = 0.4;
  c.relation_weighting = false;
  c.concat_layers = false;
  c.bootstrap_rounds = 0;
  c.seed = seed;
  return c;
}

PropagationConfig RreaModelConfig(uint64_t seed) {
  PropagationConfig c;
  c.dim = 64;
  c.layers = 6;
  c.self_weight = 0.3;
  c.relation_weighting = true;
  c.concat_layers = true;
  c.clamp_anchors = true;
  c.bootstrap_rounds = 2;
  c.bootstrap_margin = 0.05;
  c.init_noise = 0.05;
  c.seed = seed;
  return c;
}

Result<EmbeddingPair> ComputeStructuralEmbeddings(
    const KgPairDataset& dataset, const PropagationConfig& config) {
  if (config.dim == 0 || config.layers == 0) {
    return Status::InvalidArgument("propagation dim/layers must be > 0");
  }
  if (config.self_weight < 0.0 || config.self_weight >= 1.0) {
    return Status::InvalidArgument("self_weight must be in [0, 1)");
  }

  Rng master(config.seed);
  std::vector<EntityPair> anchors = dataset.split.train.pairs();
  // Train anchors are clamped every layer (hard supervision); bootstrap
  // pseudo-anchors only seed the initial features and may drift, so their
  // pair scores do not saturate and distort the score distribution.
  const size_t num_hard_anchors = anchors.size();

  EmbeddingPair result;
  const size_t rounds = 1 + config.bootstrap_rounds;
  for (size_t round = 0; round < rounds; ++round) {
    // Re-derive the same feature streams each round so only the anchor set
    // changes between rounds.
    Rng init_rng = master.Fork(17);
    Rng anchor_rng = master.Fork(23);
    const float noise = static_cast<float>(config.init_noise);
    Matrix h_src = InitFeatures(dataset.source.num_entities(), config.dim,
                                noise, &init_rng);
    Matrix h_tgt = InitFeatures(dataset.target.num_entities(), config.dim,
                                noise, &init_rng);
    ApplyAnchors(anchors, &h_src, &h_tgt, &anchor_rng);

    std::vector<EntityId> src_anchor_rows;
    std::vector<EntityId> tgt_anchor_rows;
    src_anchor_rows.reserve(num_hard_anchors);
    tgt_anchor_rows.reserve(num_hard_anchors);
    for (size_t i = 0; i < num_hard_anchors; ++i) {
      src_anchor_rows.push_back(anchors[i].source);
      tgt_anchor_rows.push_back(anchors[i].target);
    }

    result.source = Propagate(dataset.source, h_src, src_anchor_rows, config);
    result.target = Propagate(dataset.target, h_tgt, tgt_anchor_rows, config);

    if (round + 1 < rounds) {
      std::vector<EntityPair> pseudo =
          FindPseudoAnchors(dataset, result, config.bootstrap_margin);
      EM_LOG(Debug) << "bootstrap round " << round << ": " << pseudo.size()
                    << " pseudo-anchors";
      if (pseudo.empty()) break;
      anchors.insert(anchors.end(), pseudo.begin(), pseudo.end());
    }
  }
  return result;
}

}  // namespace entmatcher
