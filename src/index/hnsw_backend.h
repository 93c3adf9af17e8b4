#ifndef ENTMATCHER_INDEX_HNSW_BACKEND_H_
#define ENTMATCHER_INDEX_HNSW_BACKEND_H_

#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/backend.h"
#include "la/matrix.h"

namespace entmatcher {

/// HNSW candidate backend: a hierarchical navigable-small-world graph over
/// the target rows (Malkov & Yashunin), built from scratch with no external
/// dependency. A query greedily descends the sparse upper layers to a good
/// entry point, then runs an `ef_search`-wide beam search over the dense
/// layer 0; the facade exact-reranks everything the beam kept, so — exactly
/// like IVF — only candidate *coverage* is approximate and every emitted
/// sparse entry is bit-identical to its dense score cell.
///
/// Graph navigation orders nodes by cosine (LaneDot × stored inverse norm;
/// the query's own norm cannot change the ordering), matching the IVF probe
/// geometry. LaneDot sums in sixteen lanes, so its scores can differ from
/// Dot's in the last bits; they only steer the walk, and the rerank rescores
/// every candidate with the exact metric. For the euclidean/manhattan
/// metrics the graph is a cosine-proxy candidate generator, again mirroring
/// IVF's centroid probes.
///
/// Determinism: the level of node id is a pure hash of (seed, id), nodes are
/// inserted in ascending id order, every score tie resolves by lower id, and
/// LaneDot is one plain C++ loop with a fixed lane order, so builds are
/// bit-reproducible given the seed, at every kernel tier and thread count
/// (tests/index/index_bytes_test.cc pins the bytes).
///
/// Storage is O(m · 2M) link slots plus one float norm per row; the target
/// matrix itself is never retained, so the backend works unchanged over an
/// mmap-backed embedding store.
class HnswBackend final : public CandidateBackend {
 public:
  static constexpr int kMaxLevel = 24;

  /// Builds the graph over `target` (m×d). `max_links` is the paper's M
  /// (layer-0 lists hold up to 2M); `ef_construction` is the build-time beam
  /// width, clamped up to 2M internally so new nodes always see enough
  /// neighbors to fill their lists.
  static Result<std::unique_ptr<HnswBackend>> Build(const Matrix& target,
                                                    size_t max_links,
                                                    size_t ef_construction,
                                                    uint64_t seed);

  /// Deserializes the EIDX2 body. `payload_bytes` is what the file holds
  /// from the body's first byte on; a header declaring larger arrays is
  /// refused with kIoError before anything is allocated.
  static Result<std::unique_ptr<HnswBackend>> LoadPayload(
      std::istream& in, uint64_t payload_bytes, const std::string& path);

  CandidateBackendKind kind() const override {
    return CandidateBackendKind::kHnsw;
  }
  size_t num_targets() const override { return num_targets_; }
  size_t dim() const override { return dim_; }
  size_t max_links() const { return max_links_; }
  size_t ef_construction() const { return ef_construction_; }
  int max_level() const { return max_level_; }

  void Collect(const Matrix& target, const float* x, const ProbeParams& params,
               CandidateScratch* scratch,
               std::vector<uint32_t>* out) const override;

  /// Stats over the layer-0 adjacency: num_lists = layer count, list sizes =
  /// out-degrees.
  CandidateListStats Stats() const override;
  Status SavePayload(std::ostream& out) const override;

 private:
  HnswBackend() = default;

  /// Seeded level assignment: a pure function of (seed, id) with the usual
  /// geometric distribution (p = 1/M per extra level).
  int LevelFor(uint32_t id) const;

  /// Cosine ordering score of stored node `j` against query vector `x`:
  /// LaneDot(x, row_j) · inv_norm_j. LaneDot is not a tier op, so candidate
  /// coverage never depends on EM_KERNEL_TIER. Every navigation score, at
  /// build and probe time, goes through here.
  float ScoreAgainst(const Matrix& target, const float* x, uint32_t j) const;

  /// Full cosine between stored nodes (both inverse norms applied) — the
  /// scale the selection heuristic compares cross-pair.
  float CosineBetween(const Matrix& target, uint32_t a, uint32_t b) const;

  void NeighborsAt(uint32_t node, int level, const uint32_t** ids,
                   size_t* count) const;

  /// Greedy hill-climb at `level`: repeatedly hop to the best-scoring
  /// neighbor until no neighbor improves on the current node.
  uint32_t GreedyDescend(const Matrix& target, const float* x, uint32_t entry,
                         int level) const;

  /// Beam search at `level`: leaves the kept (score, id) pairs in
  /// scratch->best (heap order; callers sort or drain as needed).
  void SearchLayer(const Matrix& target, const float* x, uint32_t entry,
                   size_t ef, int level, CandidateScratch* scratch) const;

  /// Heuristic neighbor selection (HNSW paper Alg. 4 with pruned-candidate
  /// backfill): keeps candidates closer to the query than to anything
  /// already selected, which preserves graph connectivity across clusters.
  /// `candidates` must be sorted best-first on the full-cosine scale;
  /// shrunk in place to at most `cap` entries.
  void SelectNeighbors(const Matrix& target,
                       std::vector<std::pair<float, uint32_t>>* candidates,
                       size_t cap) const;

  /// Adds the back-edge node→j, re-selecting node's list when it overflows.
  void ConnectBack(const Matrix& target, uint32_t node, uint32_t j, int level);

  void SetNeighbors(uint32_t node, int level,
                    const std::vector<std::pair<float, uint32_t>>& selected);

  /// Links node j into the graph over nodes [0, j) — the build's step.
  void InsertNode(const Matrix& target, uint32_t j, CandidateScratch* scratch);

  size_t num_targets_ = 0;
  size_t dim_ = 0;
  size_t max_links_ = 16;       // M: per-list cap on layers >= 1
  size_t max_links0_ = 32;      // 2M: layer-0 cap
  size_t ef_construction_ = 64;
  uint64_t seed_ = 13;
  double inv_log_m_ = 0.0;      // 1 / ln(M), the level-assignment scale
  uint32_t entry_point_ = 0;
  int max_level_ = -1;          // -1 = empty graph
  std::vector<float> inv_norms_;     // m; 0 for zero rows
  std::vector<uint32_t> counts0_;    // m layer-0 out-degrees
  std::vector<uint32_t> neighbors0_; // m × max_links0_ layer-0 link slots
  /// Upper-layer adjacency, only for the ~m/M nodes with level >= 1:
  /// node id → per-level neighbor lists (index l-1 = level l). An ordered
  /// map so serialization and iteration are deterministic.
  std::map<uint32_t, std::vector<std::vector<uint32_t>>> upper_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_INDEX_HNSW_BACKEND_H_
