#include "index/exact_backend.h"

namespace entmatcher {

Result<std::unique_ptr<ExactBackend>> ExactBackend::Build(
    const Matrix& target) {
  if (target.rows() == 0 || target.cols() == 0) {
    return Status::InvalidArgument("CandidateIndex: empty target embeddings");
  }
  auto index = std::unique_ptr<ExactBackend>(new ExactBackend());
  index->num_targets_ = target.rows();
  index->dim_ = target.cols();
  return index;
}

void ExactBackend::Collect(const Matrix& target, const float* x,
                           const ProbeParams& params,
                           CandidateScratch* scratch,
                           std::vector<uint32_t>* out) const {
  (void)target;
  (void)x;
  (void)params;
  (void)scratch;
  out->reserve(out->size() + num_targets_);
  for (size_t j = 0; j < num_targets_; ++j) {
    out->push_back(static_cast<uint32_t>(j));
  }
}

CandidateListStats ExactBackend::Stats() const {
  CandidateListStats stats;
  stats.backend = CandidateBackendKind::kExact;
  stats.num_lists = 1;
  stats.num_targets = num_targets_;
  stats.min_list_size = num_targets_;
  stats.max_list_size = num_targets_;
  stats.mean_list_size = static_cast<double>(num_targets_);
  size_t bucket = 0;
  for (size_t v = num_targets_; v > 1; v >>= 1) ++bucket;
  stats.size_histogram.assign(bucket + 1, 0);
  stats.size_histogram[bucket] = 1;
  return stats;
}

Status ExactBackend::SavePayload(std::ostream& out) const {
  const uint64_t header[2] = {num_targets_, dim_};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  if (!out) return Status::IoError("index payload write failed");
  return Status::OK();
}

Result<std::unique_ptr<ExactBackend>> ExactBackend::LoadPayload(
    std::istream& in, const std::string& path) {
  uint64_t header[2] = {0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) return Status::IoError("truncated index header: " + path);
  if (header[0] == 0 || header[0] > (1ull << 32) || header[1] == 0 ||
      header[1] > (1ull << 24)) {
    return Status::IoError("implausible index shape in: " + path);
  }
  auto index = std::unique_ptr<ExactBackend>(new ExactBackend());
  index->num_targets_ = static_cast<size_t>(header[0]);
  index->dim_ = static_cast<size_t>(header[1]);
  return index;
}

}  // namespace entmatcher
