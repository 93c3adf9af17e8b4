#include "index/candidate_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "index/exact_backend.h"
#include "index/hnsw_backend.h"
#include "index/ivf_backend.h"

namespace entmatcher {

namespace {

constexpr char kMagic[4] = {'E', 'I', 'D', 'X'};
constexpr uint64_t kFormatVersion = 2;

}  // namespace

Result<CandidateIndex> CandidateIndex::Build(
    const Matrix& target, const CandidateIndexOptions& options) {
  switch (options.backend) {
    case CandidateBackendKind::kExact: {
      EM_ASSIGN_OR_RETURN(auto backend, ExactBackend::Build(target));
      return CandidateIndex(std::move(backend));
    }
    case CandidateBackendKind::kIvf: {
      EM_ASSIGN_OR_RETURN(
          auto backend,
          IvfBackend::Build(target, options.num_lists,
                            options.kmeans_iterations, options.seed));
      return CandidateIndex(std::move(backend));
    }
    case CandidateBackendKind::kHnsw: {
      EM_ASSIGN_OR_RETURN(
          auto backend,
          HnswBackend::Build(target, options.hnsw_max_links,
                             options.hnsw_ef_construction, options.seed));
      return CandidateIndex(std::move(backend));
    }
  }
  return Status::InvalidArgument("CandidateIndex: unknown backend");
}

size_t CandidateIndex::num_lists() const {
  if (backend_->kind() != CandidateBackendKind::kIvf) return 0;
  return static_cast<const IvfBackend*>(backend_.get())->num_lists();
}

std::span<const uint32_t> CandidateIndex::List(size_t l) const {
  assert(backend_->kind() == CandidateBackendKind::kIvf);
  return static_cast<const IvfBackend*>(backend_.get())->List(l);
}

Status CandidateIndex::FillSparseScores(const Matrix& source,
                                        const Matrix& target,
                                        SimilarityMetric metric,
                                        const SimilarityCache& cache,
                                        size_t num_candidates,
                                        const ProbeParams& params,
                                        SparseScores* out) const {
  if (source.cols() != dim()) {
    return Status::InvalidArgument(
        "CandidateIndex: source dim differs from the indexed embeddings");
  }
  if (target.rows() != num_targets() || target.cols() != dim()) {
    return Status::InvalidArgument(
        "CandidateIndex: target matrix does not match the indexed shape");
  }
  if (num_candidates == 0) {
    return Status::InvalidArgument(
        "CandidateIndex: num_candidates must be >= 1");
  }
  if (backend() == CandidateBackendKind::kIvf && params.nprobe == 0) {
    return Status::InvalidArgument("CandidateIndex: nprobe must be >= 1");
  }
  if (backend() == CandidateBackendKind::kHnsw && params.ef_search == 0) {
    return Status::InvalidArgument("CandidateIndex: ef_search must be >= 1");
  }
  const size_t n = source.rows();
  const size_t stride = std::min(num_candidates, num_targets());
  if (out->rows() != n || out->cols() != num_targets()) {
    return Status::InvalidArgument("CandidateIndex: output shape mismatch");
  }
  if (out->capacity() < n * stride) {
    return Status::InvalidArgument(
        "CandidateIndex: output capacity below rows * candidates");
  }
  // The HNSW beam never returns more than ef candidates; widen it to the
  // requested top-c so the kept set is never starved by a narrow beam.
  ProbeParams effective = params;
  effective.ef_search = std::max(effective.ef_search, stride);

  // Phase 1 (parallel, deterministic): each row collects its backend
  // candidates, exact-reranks them, and writes the winners into a private
  // stride-aligned slot. Rows never share state, so static chunking makes
  // this bit-identical at any thread count.
  std::vector<size_t> count(n, 0);
  float* values = out->values();
  uint32_t* cols = out->col_indices();
  const CandidateBackend* backend = backend_.get();
  ParallelFor(0, n, 16, [&](size_t begin, size_t end) {
    CandidateScratch scratch;
    std::vector<uint32_t> collected;
    std::vector<float> scores;
    std::vector<std::pair<float, uint32_t>> candidates;
    for (size_t i = begin; i < end; ++i) {
      collected.clear();
      backend->Collect(target, source.Row(i).data(), effective, &scratch,
                       &collected);
      // Exact rerank of every collected candidate.
      scores.resize(collected.size());
      PairSimilarities(source, target, i, collected, metric, cache,
                       scores.data());
      candidates.clear();
      for (size_t e = 0; e < collected.size(); ++e) {
        candidates.emplace_back(scores[e], collected[e]);
      }
      const size_t keep = std::min(stride, candidates.size());
      std::partial_sort(candidates.begin(), candidates.begin() + keep,
                        candidates.end(), CandidateBetter);
      candidates.resize(keep);
      // Column-ascending storage: CSR entry order == dense cell order.
      std::sort(candidates.begin(), candidates.end(),
                [](const std::pair<float, uint32_t>& a,
                   const std::pair<float, uint32_t>& b) {
                  return a.second < b.second;
                });
      for (size_t e = 0; e < keep; ++e) {
        values[i * stride + e] = candidates[e].first;
        cols[i * stride + e] = candidates[e].second;
      }
      count[i] = keep;
    }
  });

  // Phase 2 (serial): build the offsets and left-pack the strided slots into
  // contiguous CSR order. Destinations never pass sources, so the in-place
  // forward copy is safe.
  std::vector<size_t>& offsets = out->mutable_row_offsets();
  offsets.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + count[i];
  for (size_t i = 0; i < n; ++i) {
    const size_t src = i * stride;
    const size_t dst = offsets[i];
    if (src == dst) continue;
    for (size_t e = 0; e < count[i]; ++e) {
      values[dst + e] = values[src + e];
      cols[dst + e] = cols[src + e];
    }
  }
  return Status::OK();
}

Result<SparseScores> CandidateIndex::SparseSimilarity(
    const Matrix& source, const Matrix& target, SimilarityMetric metric,
    size_t num_candidates, size_t nprobe) const {
  if (num_candidates == 0) {
    return Status::InvalidArgument(
        "CandidateIndex: num_candidates must be >= 1");
  }
  const size_t stride = std::min(num_candidates, num_targets());
  SparseScores out = SparseScores::CreateOwned(
      source.rows(), num_targets(), source.rows() * stride);
  const SimilarityCache cache = BuildSimilarityCache(source, target, metric);
  ProbeParams params;
  params.nprobe = nprobe;
  EM_RETURN_NOT_OK(FillSparseScores(source, target, metric, cache,
                                    num_candidates, params, &out));
  return out;
}

Status CandidateIndex::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kFormatVersion),
            sizeof(kFormatVersion));
  const uint8_t tag = static_cast<uint8_t>(backend_->kind());
  out.write(reinterpret_cast<const char*>(&tag), sizeof(tag));
  EM_RETURN_NOT_OK(backend_->SavePayload(out));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<CandidateIndex> CandidateIndex::Load(const std::string& path) {
  // Chaos point: a short read surfacing as kIoError mid-load. Lives at the
  // facade so every backend's load path shares the same failure mode.
  EM_INJECT_FAULT("index.load.read", StatusCode::kIoError);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  const std::streamoff file_size = in.tellg();
  if (file_size < 0) return Status::IoError("cannot size index file: " + path);
  in.seekg(0);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not an EIDX index file: " + path);
  }
  uint64_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) return Status::IoError("truncated index header: " + path);
  if (version != kFormatVersion) {
    return Status::IoError("unsupported EIDX version in: " + path);
  }
  uint8_t tag = 0;
  in.read(reinterpret_cast<char*>(&tag), sizeof(tag));
  if (!in) return Status::IoError("truncated index header: " + path);
  // The loaders size their arrays from header fields; this bound lets them
  // refuse a header that promises more data than the file holds.
  const uint64_t payload_bytes = static_cast<uint64_t>(file_size - in.tellg());
  switch (static_cast<CandidateBackendKind>(tag)) {
    case CandidateBackendKind::kExact: {
      EM_ASSIGN_OR_RETURN(auto backend, ExactBackend::LoadPayload(in, path));
      return CandidateIndex(std::move(backend));
    }
    case CandidateBackendKind::kIvf: {
      EM_ASSIGN_OR_RETURN(auto backend,
                          IvfBackend::LoadPayload(in, payload_bytes, path));
      return CandidateIndex(std::move(backend));
    }
    case CandidateBackendKind::kHnsw: {
      EM_ASSIGN_OR_RETURN(auto backend,
                          HnswBackend::LoadPayload(in, payload_bytes, path));
      return CandidateIndex(std::move(backend));
    }
  }
  return Status::IoError("unknown backend tag in: " + path);
}

}  // namespace entmatcher
