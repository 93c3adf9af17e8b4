#include "index/ivf_backend.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "common/rng.h"
#include "la/kernels/dispatch.h"
#include "la/kmeans.h"

namespace entmatcher {

Result<std::unique_ptr<IvfBackend>> IvfBackend::Build(const Matrix& target,
                                                      size_t num_lists,
                                                      size_t kmeans_iterations,
                                                      uint64_t seed) {
  if (target.rows() == 0 || target.cols() == 0) {
    return Status::InvalidArgument("CandidateIndex: empty target embeddings");
  }
  if (kmeans_iterations == 0) {
    return Status::InvalidArgument(
        "CandidateIndex: kmeans_iterations must be >= 1");
  }
  const size_t m = target.rows();
  if (num_lists == 0) {
    // IVF rule of thumb: ~sqrt(m) cells balances probe cost against list
    // scan cost.
    num_lists = static_cast<size_t>(std::lround(std::sqrt(
        static_cast<double>(m))));
  }
  num_lists = std::max<size_t>(1, std::min(num_lists, m));

  Rng rng(seed);
  KMeansResult kmeans =
      CosineKMeans(target, num_lists, kmeans_iterations, &rng);

  auto index = std::unique_ptr<IvfBackend>(new IvfBackend());
  index->num_targets_ = m;
  index->dim_ = target.cols();
  index->centroids_ = std::move(kmeans.centroids);

  // Counting sort into inverted lists; scanning target ids in ascending
  // order keeps every list ascending, which the CSR packing relies on.
  index->list_offsets_.assign(num_lists + 1, 0);
  for (uint32_t c : kmeans.assignment) ++index->list_offsets_[c + 1];
  for (size_t l = 0; l < num_lists; ++l) {
    index->list_offsets_[l + 1] += index->list_offsets_[l];
  }
  index->list_ids_.resize(m);
  std::vector<uint64_t> cursor(index->list_offsets_.begin(),
                               index->list_offsets_.end() - 1);
  for (size_t j = 0; j < m; ++j) {
    index->list_ids_[cursor[kmeans.assignment[j]]++] =
        static_cast<uint32_t>(j);
  }
  return index;
}

CandidateListStats IvfBackend::Stats() const {
  CandidateListStats stats;
  stats.backend = CandidateBackendKind::kIvf;
  stats.num_lists = num_lists();
  stats.num_targets = num_targets_;
  stats.min_list_size = num_targets_;
  for (size_t l = 0; l < stats.num_lists; ++l) {
    const size_t size =
        static_cast<size_t>(list_offsets_[l + 1] - list_offsets_[l]);
    stats.min_list_size = std::min(stats.min_list_size, size);
    stats.max_list_size = std::max(stats.max_list_size, size);
    size_t bucket = 0;
    for (size_t v = size; v > 1; v >>= 1) ++bucket;
    if (bucket >= stats.size_histogram.size()) {
      stats.size_histogram.resize(bucket + 1, 0);
    }
    ++stats.size_histogram[bucket];
  }
  stats.mean_list_size = stats.num_lists > 0
                             ? static_cast<double>(num_targets_) /
                                   static_cast<double>(stats.num_lists)
                             : 0.0;
  return stats;
}

void IvfBackend::ProbeLists(
    const float* x, size_t nprobe,
    std::vector<std::pair<float, uint32_t>>* scratch,
    std::vector<uint32_t>* probed) const {
  const size_t lists = num_lists();
  const size_t probes = std::min(nprobe, lists);
  scratch->resize(lists);
  // Rank cells by centroid dot product. Centroids are unit-norm, so the
  // query's own norm cannot change the ordering.
  for (size_t l = 0; l < lists; ++l) {
    (*scratch)[l] = {Dot(x, centroids_.Row(l).data(), dim_),
                     static_cast<uint32_t>(l)};
  }
  std::partial_sort(scratch->begin(), scratch->begin() + probes,
                    scratch->end(), CandidateBetter);
  for (size_t p = 0; p < probes; ++p) probed->push_back((*scratch)[p].second);
}

void IvfBackend::Collect(const Matrix& target, const float* x,
                         const ProbeParams& params, CandidateScratch* scratch,
                         std::vector<uint32_t>* out) const {
  (void)target;  // IVF navigates by stored centroids alone.
  scratch->probed.clear();
  ProbeLists(x, params.nprobe, &scratch->ranked_lists, &scratch->probed);
  for (uint32_t l : scratch->probed) {
    for (uint32_t j : List(l)) out->push_back(j);
  }
}

Status IvfBackend::SavePayload(std::ostream& out) const {
  const uint64_t header[3] = {num_targets_, dim_, num_lists()};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(centroids_.data()),
            static_cast<std::streamsize>(centroids_.ByteSize()));
  out.write(reinterpret_cast<const char*>(list_offsets_.data()),
            static_cast<std::streamsize>(list_offsets_.size() *
                                         sizeof(uint64_t)));
  out.write(reinterpret_cast<const char*>(list_ids_.data()),
            static_cast<std::streamsize>(list_ids_.size() *
                                         sizeof(uint32_t)));
  if (!out) return Status::IoError("index payload write failed");
  return Status::OK();
}

Result<std::unique_ptr<IvfBackend>> IvfBackend::LoadPayload(
    std::istream& in, uint64_t payload_bytes, const std::string& path) {
  uint64_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) return Status::IoError("truncated index header: " + path);
  const uint64_t num_targets = header[0];
  const uint64_t dim = header[1];
  const uint64_t num_lists = header[2];
  // Same sanity bound as the EMAT reader: refuse absurd shapes, not
  // bad_alloc.
  if (num_targets > (1ull << 32) || dim > (1ull << 24) ||
      num_lists == 0 || num_lists > num_targets || dim == 0) {
    return Status::IoError("implausible index shape in: " + path);
  }
  // Centroids, list offsets and list ids, in that order. The shape bounds
  // above keep this sum far below 2^64.
  const uint64_t array_bytes = num_lists * dim * sizeof(float) +
                               (num_lists + 1) * sizeof(uint64_t) +
                               num_targets * sizeof(uint32_t);
  if (sizeof(header) + array_bytes > payload_bytes) {
    return Status::IoError("index header declares more data than the file "
                           "holds: " + path);
  }
  auto index = std::unique_ptr<IvfBackend>(new IvfBackend());
  index->num_targets_ = static_cast<size_t>(num_targets);
  index->dim_ = static_cast<size_t>(dim);
  index->centroids_ = Matrix(static_cast<size_t>(num_lists),
                             static_cast<size_t>(dim));
  in.read(reinterpret_cast<char*>(index->centroids_.data()),
          static_cast<std::streamsize>(index->centroids_.ByteSize()));
  index->list_offsets_.resize(static_cast<size_t>(num_lists) + 1);
  in.read(reinterpret_cast<char*>(index->list_offsets_.data()),
          static_cast<std::streamsize>(index->list_offsets_.size() *
                                       sizeof(uint64_t)));
  index->list_ids_.resize(static_cast<size_t>(num_targets));
  in.read(reinterpret_cast<char*>(index->list_ids_.data()),
          static_cast<std::streamsize>(index->list_ids_.size() *
                                       sizeof(uint32_t)));
  if (!in) return Status::IoError("truncated index data: " + path);
  if (!index->list_ids_.empty() &&
      FaultInjector::Global().Fired("index.load.corrupt")) {
    // Chaos point: flip a high bit in the first inverted-list id so the
    // validation below must catch in-memory corruption, not just truncation.
    index->list_ids_[0] ^= 0x80000000u;
  }
  if (index->list_offsets_.front() != 0 ||
      index->list_offsets_.back() != num_targets) {
    return Status::IoError("corrupt inverted-list offsets in: " + path);
  }
  for (size_t l = 0; l + 1 < index->list_offsets_.size(); ++l) {
    if (index->list_offsets_[l] > index->list_offsets_[l + 1]) {
      return Status::IoError("corrupt inverted-list offsets in: " + path);
    }
  }
  for (uint32_t id : index->list_ids_) {
    if (id >= num_targets) {
      return Status::IoError("corrupt inverted-list ids in: " + path);
    }
  }
  return index;
}

}  // namespace entmatcher
