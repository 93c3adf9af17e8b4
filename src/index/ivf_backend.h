#ifndef ENTMATCHER_INDEX_IVF_BACKEND_H_
#define ENTMATCHER_INDEX_IVF_BACKEND_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/backend.h"
#include "la/matrix.h"

namespace entmatcher {

/// IVF candidate backend: a cosine k-means coarse quantizer (the
/// partitioner's k-means, shared via la/kmeans) whose cells become inverted
/// lists of target ids. A query probes the `nprobe` nearest cells by centroid
/// dot product; the facade exact-reranks every member. Stores O(L·d + m)
/// bytes: centroids and id lists only.
class IvfBackend final : public CandidateBackend {
 public:
  /// Builds the quantizer and inverted lists over `target` (m×d).
  /// `num_lists` 0 = auto: ~sqrt(m).
  static Result<std::unique_ptr<IvfBackend>> Build(const Matrix& target,
                                                   size_t num_lists,
                                                   size_t kmeans_iterations,
                                                   uint64_t seed);

  /// Deserializes the EIDX2 body. `payload_bytes` is what the file holds
  /// from the body's first byte on; a header declaring larger arrays is
  /// refused with kIoError before anything is allocated.
  static Result<std::unique_ptr<IvfBackend>> LoadPayload(
      std::istream& in, uint64_t payload_bytes, const std::string& path);

  CandidateBackendKind kind() const override {
    return CandidateBackendKind::kIvf;
  }
  size_t num_targets() const override { return num_targets_; }
  size_t dim() const override { return dim_; }

  size_t num_lists() const { return list_offsets_.size() - 1; }

  /// Target ids of one inverted list, ascending.
  std::span<const uint32_t> List(size_t l) const {
    return std::span<const uint32_t>(
        list_ids_.data() + list_offsets_[l],
        list_offsets_[l + 1] - list_offsets_[l]);
  }

  void Collect(const Matrix& target, const float* x, const ProbeParams& params,
               CandidateScratch* scratch,
               std::vector<uint32_t>* out) const override;

  CandidateListStats Stats() const override;
  Status SavePayload(std::ostream& out) const override;

 private:
  IvfBackend() = default;

  /// Ranks every inverted list by centroid dot product with `x` and appends
  /// the ids of the `nprobe` best to `probed`, best-first (ties: lower list
  /// id). The dot runs on the scalar loop at every kernel tier: probe
  /// selection — and with it candidate coverage — must never depend on
  /// EM_KERNEL_TIER.
  void ProbeLists(const float* x, size_t nprobe,
                  std::vector<std::pair<float, uint32_t>>* scratch,
                  std::vector<uint32_t>* probed) const;

  Matrix centroids_;                    // L × d, rows L2-normalized
  std::vector<uint64_t> list_offsets_;  // L + 1
  std::vector<uint32_t> list_ids_;      // m target ids, ascending per list
  size_t num_targets_ = 0;
  size_t dim_ = 0;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_INDEX_IVF_BACKEND_H_
