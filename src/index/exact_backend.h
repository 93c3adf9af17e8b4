#ifndef ENTMATCHER_INDEX_EXACT_BACKEND_H_
#define ENTMATCHER_INDEX_EXACT_BACKEND_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string>

#include "common/status.h"
#include "index/backend.h"

namespace entmatcher {

/// Exhaustive candidate backend: every target is a candidate, so coverage is
/// exact and recall@c is 1.0 by construction. It turns the sparse pipeline
/// into a brute-force top-c scan — O(n·m) score evaluations but still
/// O(n·c) workspace — which makes it the ground-truth baseline the
/// approximate backends (and their parity tests) are measured against, and a
/// sensible choice for pairs small enough that probe overhead exceeds the
/// scan.
class ExactBackend final : public CandidateBackend {
 public:
  static Result<std::unique_ptr<ExactBackend>> Build(const Matrix& target);
  static Result<std::unique_ptr<ExactBackend>> LoadPayload(
      std::istream& in, const std::string& path);

  CandidateBackendKind kind() const override {
    return CandidateBackendKind::kExact;
  }
  size_t num_targets() const override { return num_targets_; }
  size_t dim() const override { return dim_; }

  void Collect(const Matrix& target, const float* x, const ProbeParams& params,
               CandidateScratch* scratch,
               std::vector<uint32_t>* out) const override;

  CandidateListStats Stats() const override;
  Status SavePayload(std::ostream& out) const override;

 private:
  ExactBackend() = default;

  size_t num_targets_ = 0;
  size_t dim_ = 0;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_INDEX_EXACT_BACKEND_H_
