#ifndef ENTMATCHER_INDEX_BACKEND_H_
#define ENTMATCHER_INDEX_BACKEND_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"

namespace entmatcher {

/// The candidate-generation strategies behind CandidateIndex. The enum values
/// are the EIDX2 on-disk backend tags — do not renumber.
enum class CandidateBackendKind : uint8_t {
  /// Every target is a candidate (exhaustive scan, exact coverage). The
  /// baseline the approximate backends are measured against, and the right
  /// choice for tiny pairs where probe overhead exceeds the scan.
  kExact = 0,
  /// IVF: cosine k-means coarse quantizer, nprobe inverted lists per query.
  kIvf = 1,
  /// HNSW: hierarchical navigable-small-world graph, ef-wide beam search.
  kHnsw = 2,
};

/// Display / CLI name ("exact" | "ivf" | "hnsw").
const char* CandidateBackendName(CandidateBackendKind kind);

/// Parses a CLI backend name; kInvalidArgument on anything unknown.
Result<CandidateBackendKind> ParseCandidateBackend(const std::string& name);

/// Per-query probe knobs. Each backend reads only its own field — nprobe for
/// IVF, ef_search for HNSW, neither for exact — which is what lets
/// ScoreSignature zero the inactive knob so it cannot split a batch.
struct ProbeParams {
  /// IVF: inverted lists probed per query row.
  size_t nprobe = 4;
  /// HNSW: beam width of the layer-0 search. The backend never returns more
  /// than ef_search candidates, so callers clamp it up to num_candidates.
  size_t ef_search = 64;
};

/// (score desc, id asc): the total order shared by every backend, probe
/// ranking, and rerank — it matches the dense argmax convention (lowest index
/// wins ties), so the kept candidate set is deterministic and independent of
/// the order candidates were collected in.
inline bool CandidateBetter(const std::pair<float, uint32_t>& a,
                            const std::pair<float, uint32_t>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

/// Caller-owned per-thread scratch so row loops reuse allocations across
/// queries. Backends use only the members they need; the visited stamps are
/// epoch-tagged so HNSW never pays an O(m) clear per query.
struct CandidateScratch {
  // IVF: centroid ranking and the probed cell ids.
  std::vector<std::pair<float, uint32_t>> ranked_lists;
  std::vector<uint32_t> probed;
  // HNSW: visited stamps plus the two search heaps.
  std::vector<uint32_t> visited;
  uint32_t epoch = 0;
  std::vector<std::pair<float, uint32_t>> frontier;
  std::vector<std::pair<float, uint32_t>> best;
};

/// Occupancy/shape summary of a built backend. For IVF the "lists" are the
/// inverted lists; for HNSW they are the layer-0 adjacency lists (so min/max/
/// mean describe graph degree); for exact there is one list holding every
/// target.
struct CandidateListStats {
  CandidateBackendKind backend = CandidateBackendKind::kIvf;
  size_t num_lists = 0;
  size_t num_targets = 0;
  size_t min_list_size = 0;
  size_t max_list_size = 0;
  double mean_list_size = 0.0;
  /// Log2-bucketed list sizes: bucket b counts lists of size in
  /// [2^b, 2^(b+1)); empty lists land in bucket 0.
  std::vector<size_t> size_histogram;
};

/// A candidate-generation strategy: given a query row, produce the target ids
/// worth exact-reranking. Backends store only their navigation structure
/// (centroids, graph links, norms) — never the embedding matrix itself, which
/// callers pass back in at query time. That is what lets the same backend
/// serve an in-memory Matrix or an mmap-backed store without copies.
///
/// Determinism contract (shared with the facade): Collect scores only
/// through Dot and LaneDot, which are not tier ops — candidate *coverage*
/// must never depend on EM_KERNEL_TIER — and resolves every score tie by
/// lower id, so the emitted set is a pure function of (index state, query
/// row, params).
class CandidateBackend {
 public:
  virtual ~CandidateBackend() = default;

  virtual CandidateBackendKind kind() const = 0;
  virtual size_t num_targets() const = 0;
  virtual size_t dim() const = 0;

  /// Appends the candidate target ids for query vector `x` (dim() floats) to
  /// `out`, without duplicates, in a deterministic backend-specific order.
  /// `target` must be the matrix the backend was built over.
  virtual void Collect(const Matrix& target, const float* x,
                       const ProbeParams& params, CandidateScratch* scratch,
                       std::vector<uint32_t>* out) const = 0;

  virtual CandidateListStats Stats() const = 0;

  /// Serializes the backend body (everything after the EIDX2 tag byte).
  virtual Status SavePayload(std::ostream& out) const = 0;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_INDEX_BACKEND_H_
