#ifndef ENTMATCHER_MATCHING_TYPES_H_
#define ENTMATCHER_MATCHING_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "la/similarity.h"

namespace entmatcher {

class CandidateIndex;

/// The outcome of the matching-decision stage: for each source candidate row
/// the assigned target candidate column, or kUnmatched when the algorithm
/// declined to align the source (dummy assignment / rejection).
struct Assignment {
  static constexpr int32_t kUnmatched = -1;

  std::vector<int32_t> target_of_source;

  size_t size() const { return target_of_source.size(); }

  /// Number of rows with a real (non-dummy) target.
  size_t NumMatched() const {
    size_t n = 0;
    for (int32_t t : target_of_source) n += (t != kUnmatched);
    return n;
  }
};

/// Pairwise-score transforms (paper Table 2, "Pairwise Scores" column).
enum class ScoreTransformKind {
  /// Raw similarity (DInf, Hun., SMat, RL).
  kNone,
  /// Cross-domain similarity local scaling (Sec. 3.3).
  kCsls,
  /// Reciprocal preference + ranking aggregation (Sec. 3.4).
  kRinf,
  /// RInf without the ranking step (scalable variant RInf-wr).
  kRinfWr,
  /// RInf with candidate-pruned progressive blocking (RInf-pb).
  kRinfPb,
  /// Sinkhorn row/column normalization (Sec. 3.5).
  kSinkhorn,
};

/// Matching-decision algorithms (paper Table 2, "Matching" column).
enum class MatcherKind {
  /// Row-wise argmax (Alg. 2).
  kGreedy,
  /// Jonker–Volgenant/Hungarian optimal linear assignment (Sec. 3.5).
  kHungarian,
  /// Gale–Shapley deferred acceptance, stable matching (Sec. 3.6).
  kGaleShapley,
  /// Policy-gradient sequential decision matcher (Sec. 3.7).
  kRl,
  /// Greedy global 1-to-1 matching (SiGMa-style, extension).
  kGreedyOneToOne,
  /// Mutual-best filter with abstention (extension).
  kMutualBest,
};

/// Reinforcement-learning matcher knobs (used when matcher == kRl).
struct RlMatcherOptions {
  /// Top-C candidate actions considered per source entity.
  size_t num_candidates = 10;
  /// REINFORCE epochs over the training sequence. The policy-gradient
  /// training loop dominates the cost, making RL the least time-efficient
  /// algorithm — as the paper observes (Fig. 5a).
  size_t epochs = 250;
  /// Unsupervised fine-tuning rollouts over the *test* sequence before the
  /// final decode (reward = score margin + coherence - exclusiveness
  /// violations, no gold needed), following [65]'s test-time coordination
  /// learning. These rollouts dominate RL's cost on large candidate sets.
  size_t test_rollouts = 100;
  /// Policy network hidden width.
  size_t hidden = 16;
  double learning_rate = 0.05;
  /// Pre-filter: mutual-best pairs whose margin exceeds this skip the RL
  /// stage entirely (the confidence filter of [65]).
  double confidence_margin = 0.25;
  uint64_t seed = 11;
};

/// Full configuration of the embedding-matching pipeline
/// (metric -> transform -> matcher; paper Fig. 3).
struct MatchOptions {
  SimilarityMetric metric = SimilarityMetric::kCosine;
  ScoreTransformKind transform = ScoreTransformKind::kNone;
  MatcherKind matcher = MatcherKind::kGreedy;

  /// CSLS neighborhood size k (Eq. 1; Fig. 6 sweeps it).
  size_t csls_k = 1;

  /// RInf reverse-preference neighborhood size (1 = the paper's max-based
  /// Eq. 2; the Appendix C study sweeps it in the non-1-to-1 setting).
  size_t rinf_k = 1;

  /// Sinkhorn iteration count l (Eq. 3; Fig. 7 sweeps it).
  size_t sinkhorn_iterations = 100;
  /// Softmax temperature for exp(S / t); small values sharpen the coupling.
  double sinkhorn_temperature = 0.05;

  /// Candidate width for RInf-pb.
  size_t rinf_pb_candidates = 50;

  /// Hard cap in bytes on the matching-stage workspace (score matrix +
  /// transform scratch + decision tables); 0 = unlimited. A query that
  /// cannot fit fails with kResourceExhausted before any buffer is touched —
  /// the paper's Table 6 "Mem: No" verdict (e.g. SMat at DWY100K scale) as a
  /// real, clean error instead of an after-the-fact estimate.
  size_t workspace_budget_bytes = 0;

  /// Opt-in sub-quadratic path: when set, the engine scores only the
  /// `num_candidates` approximate nearest targets per source (found by this
  /// index, probing `index_nprobe` cells) and runs sparse transform/decision
  /// variants over the candidate lists. Peak workspace drops from O(n·m) to
  /// O(n·num_candidates). Not owned; must outlive every query using it, and
  /// must have been built over this engine's target embeddings. Transforms/
  /// matchers without a sparse variant (Sinkhorn, Hungarian, Gale–Shapley)
  /// are refused with kInvalidArgument.
  const CandidateIndex* candidate_index = nullptr;
  /// Candidates kept per source row (top-c exact rerank); must be >= 1 when
  /// candidate_index is set.
  size_t num_candidates = 0;
  /// Inverted lists probed per query row (IVF backend only).
  size_t index_nprobe = 4;
  /// Beam width of the layer-0 graph search (HNSW backend only); the engine
  /// widens it to at least num_candidates. Each backend reads only its own
  /// knob, so e.g. index_ef is ignored — and canonically zeroed in the
  /// signature — for IVF queries.
  size_t index_ef = 64;

  RlMatcherOptions rl;
};

/// True when `options` selects the sparse candidate-index path.
inline bool UsesCandidateIndex(const MatchOptions& options) {
  return options.candidate_index != nullptr;
}

/// The part of a MatchOptions that determines the transformed score matrix
/// (stages 1+2 of the pipeline: similarity metric, score transform, and the
/// transform's parameters). Two queries with equal signatures produce
/// bit-identical transformed scores, so they can share one similarity +
/// transform pass — the serving layer's micro-batching key. The decision
/// stage (matcher) is free to differ within a batch.
struct ScoreSignature {
  SimilarityMetric metric = SimilarityMetric::kCosine;
  ScoreTransformKind transform = ScoreTransformKind::kNone;
  size_t csls_k = 0;
  size_t rinf_k = 0;
  size_t sinkhorn_iterations = 0;
  double sinkhorn_temperature = 0.0;
  size_t rinf_pb_candidates = 0;
  /// Candidate-index configuration: a sparse query can only share a scores
  /// pass with queries using the same index object, width, and probe knobs
  /// (and never with a dense query). Zeroed for dense queries so a stray
  /// index_nprobe cannot split a dense batch; the knob the index's backend
  /// does not read (nprobe for HNSW, ef for IVF, both for exact) is zeroed
  /// too, for the same reason.
  const CandidateIndex* candidate_index = nullptr;
  size_t num_candidates = 0;
  size_t index_nprobe = 0;
  size_t index_ef = 0;

  /// Canonical signature of `options`: parameters the active transform does
  /// not read are zeroed, so e.g. two kNone queries with different csls_k
  /// still coalesce into one batch.
  static ScoreSignature Of(const MatchOptions& options);

  friend bool operator==(const ScoreSignature&,
                         const ScoreSignature&) = default;
};

/// The paper's named algorithms, each a (transform, matcher) combination.
enum class AlgorithmPreset {
  kDInf,
  kCsls,
  kRinf,
  kRinfWr,
  kRinfPb,
  kSinkhorn,
  kHungarian,
  kStableMatch,
  kRl,
};

/// Options reproducing `preset` (paper Sec. 4.1 "Reproduction of existing
/// approaches": e.g., CSLS = cosine + CSLS + Greedy; Hun. = cosine + None +
/// Hungarian).
MatchOptions MakePreset(AlgorithmPreset preset);

/// Paper display name ("DInf", "CSLS", "RInf", "RInf-wr", "RInf-pb",
/// "Sink.", "Hun.", "SMat", "RL").
const char* PresetName(AlgorithmPreset preset);

/// The preset whose PresetName is `name`; kInvalidArgument otherwise.
Result<AlgorithmPreset> ParsePreset(std::string_view name);

/// The seven algorithms of the main experiments (Tables 4/5/7/8 order).
std::vector<AlgorithmPreset> MainPresets();

/// Main algorithms plus the scalable RInf variants (Table 6 order).
std::vector<AlgorithmPreset> ScalabilityPresets();

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_TYPES_H_
