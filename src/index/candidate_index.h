#ifndef ENTMATCHER_INDEX_CANDIDATE_INDEX_H_
#define ENTMATCHER_INDEX_CANDIDATE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/backend.h"
#include "la/matrix.h"
#include "la/similarity.h"
#include "la/sparse.h"

namespace entmatcher {

/// Options for building a CandidateIndex.
struct CandidateIndexOptions {
  /// Which candidate-generation strategy to build (exact | IVF | HNSW).
  CandidateBackendKind backend = CandidateBackendKind::kIvf;
  /// IVF: number of inverted lists (k-means cells). 0 = auto: ~sqrt(m).
  size_t num_lists = 0;
  /// IVF: k-means iterations for the coarse quantizer.
  size_t kmeans_iterations = 10;
  /// Seed for centroid initialization (IVF) / level assignment (HNSW).
  uint64_t seed = 13;
  /// HNSW: per-node link budget M (layer 0 holds up to 2M).
  size_t hnsw_max_links = 16;
  /// HNSW: build-time beam width (clamped up to 2M internally).
  size_t hnsw_ef_construction = 64;
};

/// Approximate candidate-generation index over target embeddings — the
/// facade in front of the pluggable CandidateBackend strategies (exact
/// scan | IVF inverted lists | HNSW graph; see index/backend.h).
///
/// Whatever the backend, the pipeline shape is identical: the backend
/// proposes candidate target ids for each source row, this facade scores
/// every proposal with the *exact* pairwise metric kernel and keeps the
/// top-`c` per row — so the sparse entries it emits are bit-identical to the
/// corresponding dense score cells, and only coverage (which targets get
/// proposed) is approximate. That is what lets the sparse pipeline promise
/// "bit-identical to dense when candidate lists are complete".
///
/// Backends store only their navigation structure (O(L·d + m) for IVF,
/// O(m·2M) links for HNSW); none retains the target matrix, which callers
/// pass back in at query time — including a Matrix borrowed from an
/// mmap-backed MmapStore, which is how million-row pairs run out-of-core.
class CandidateIndex {
 public:
  /// Builds the selected backend over `target` (m×d).
  static Result<CandidateIndex> Build(const Matrix& target,
                                      const CandidateIndexOptions& options);

  CandidateBackendKind backend() const { return backend_->kind(); }
  size_t num_targets() const { return backend_->num_targets(); }
  size_t dim() const { return backend_->dim(); }

  /// IVF only: number of inverted lists (0 for other backends).
  size_t num_lists() const;

  /// IVF only: target ids of one inverted list, ascending.
  std::span<const uint32_t> List(size_t l) const;

  CandidateListStats Stats() const { return backend_->Stats(); }

  /// The probe stage alone: appends the backend's candidate ids for query
  /// vector `x` to `out` (no rerank). `out->size()` afterward is exactly the
  /// number of exact-rerank comparisons FillSparseScores would spend on this
  /// row — the currency bench_ann trades recall against.
  void CollectCandidates(const Matrix& target, const float* x,
                         const ProbeParams& params, CandidateScratch* scratch,
                         std::vector<uint32_t>* out) const {
    backend_->Collect(target, x, params, scratch, out);
  }

  /// Fills `out` with the top-`num_candidates` exact scores per source row,
  /// restricted to the candidates the backend proposes under `params` (the
  /// HNSW beam is widened to at least num_candidates so the kept set is
  /// never starved). `out` must be shaped (source.rows() × num_targets())
  /// with capacity for at least source.rows() * min(num_candidates,
  /// num_targets()) entries; `target` and `cache` must be the
  /// embeddings/cache the scores are defined over. Entries come out
  /// column-ascending per row (CSR invariant). Rows are processed
  /// independently with deterministic static chunking, so the result is
  /// bit-identical at every thread count.
  Status FillSparseScores(const Matrix& source, const Matrix& target,
                          SimilarityMetric metric,
                          const SimilarityCache& cache, size_t num_candidates,
                          const ProbeParams& params, SparseScores* out) const;

  /// Convenience wrapper: builds the cache and an owned SparseScores,
  /// probing `nprobe` lists (IVF) with the default HNSW beam.
  Result<SparseScores> SparseSimilarity(const Matrix& source,
                                        const Matrix& target,
                                        SimilarityMetric metric,
                                        size_t num_candidates,
                                        size_t nprobe) const;

  /// On-disk round trip in EIDX2: "EIDX" magic, version 2, one backend tag
  /// byte, backend payload. Load refuses every other version with
  /// kIoError, and refuses a payload header that declares more array bytes
  /// than the file holds before allocating anything.
  Status Save(const std::string& path) const;
  static Result<CandidateIndex> Load(const std::string& path);

 private:
  explicit CandidateIndex(std::unique_ptr<CandidateBackend> backend)
      : backend_(std::move(backend)) {}

  std::unique_ptr<CandidateBackend> backend_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_INDEX_CANDIDATE_INDEX_H_
