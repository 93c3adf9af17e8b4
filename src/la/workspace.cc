#include "la/workspace.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/fault.h"
#include "common/memory_tracker.h"

namespace entmatcher {

namespace {

// Guarded rows*cols*element_size; 0 on overflow.
size_t CheckedBufferBytes(size_t count, size_t element_size) {
  if (count == 0) return 0;
  if (count > std::numeric_limits<size_t>::max() / element_size) return 0;
  return count * element_size;
}

}  // namespace

Workspace::~Workspace() {
  // Leases still out at destruction belong to buffers the owner is tearing
  // down with the workspace (engine members); settle their tracker charge.
  for (const Lease& lease : leases_) {
    MemoryTracker::Global().Sub(lease.bytes);
  }
}

Result<std::byte*> Workspace::AcquireBytes(size_t bytes) {
  EM_RETURN_NOT_OK(CheckBudget(bytes));
  EM_INJECT_FAULT("workspace.acquire", StatusCode::kResourceExhausted);

  // Best fit: the smallest pooled slab that holds `bytes`; ties broken by
  // lowest index. Deterministic, so reuse patterns (and thus any accounting
  // derived from them) are reproducible run to run.
  size_t best = slabs_.size();
  for (size_t s = 0; s < slabs_.size(); ++s) {
    if (slabs_[s].leased || slabs_[s].capacity < bytes) continue;
    if (best == slabs_.size() || slabs_[s].capacity < slabs_[best].capacity) {
      best = s;
    }
  }
  if (best == slabs_.size()) {
    Slab slab;
    slab.bytes = std::make_unique<std::byte[]>(bytes);
    slab.capacity = bytes;
    slabs_.push_back(std::move(slab));
    best = slabs_.size() - 1;
  }
  slabs_[best].leased = true;
  std::byte* ptr = slabs_[best].bytes.get();
  leases_.push_back(Lease{ptr, bytes, best});

  in_use_bytes_ += bytes;
  high_water_bytes_ = std::max(high_water_bytes_, in_use_bytes_);
  MemoryTracker::Global().Add(bytes);
  return ptr;
}

void Workspace::ReleaseBytes(const std::byte* ptr) {
  for (size_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].ptr != ptr) continue;
    slabs_[leases_[i].slab].leased = false;
    in_use_bytes_ -= leases_[i].bytes;
    MemoryTracker::Global().Sub(leases_[i].bytes);
    leases_.erase(leases_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
  // Releasing a buffer that was never leased here is a caller bug; ignoring
  // it keeps release paths non-fatal (the tracker simply stays conservative).
}

Result<Matrix> Workspace::AcquireMatrix(size_t rows, size_t cols) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("Workspace::AcquireMatrix: empty shape");
  }
  if (cols > std::numeric_limits<size_t>::max() / rows) {
    return Status::InvalidArgument("Workspace::AcquireMatrix: shape overflow");
  }
  const size_t bytes = CheckedBufferBytes(rows * cols, sizeof(float));
  if (bytes == 0) {
    return Status::InvalidArgument("Workspace::AcquireMatrix: shape overflow");
  }
  EM_ASSIGN_OR_RETURN(std::byte * ptr, AcquireBytes(bytes));
  // Zero-fill so a pooled buffer is indistinguishable from Matrix(rows, cols).
  std::memset(ptr, 0, bytes);
  return Matrix::Borrowed(reinterpret_cast<float*>(ptr), rows, cols);
}

Result<std::span<uint32_t>> Workspace::AcquireIndices(size_t count) {
  if (count == 0) {
    return Status::InvalidArgument("Workspace::AcquireIndices: empty buffer");
  }
  const size_t bytes = CheckedBufferBytes(count, sizeof(uint32_t));
  if (bytes == 0) {
    return Status::InvalidArgument("Workspace::AcquireIndices: size overflow");
  }
  EM_ASSIGN_OR_RETURN(std::byte * ptr, AcquireBytes(bytes));
  std::memset(ptr, 0, bytes);
  return std::span<uint32_t>(reinterpret_cast<uint32_t*>(ptr), count);
}

void Workspace::Release(const Matrix& matrix) {
  ReleaseBytes(reinterpret_cast<const std::byte*>(matrix.data()));
}

void Workspace::Release(std::span<uint32_t> indices) {
  ReleaseBytes(reinterpret_cast<const std::byte*>(indices.data()));
}

Status Workspace::CheckBudget(size_t additional_bytes) const {
  if (budget_bytes_ == 0) return Status::OK();
  if (additional_bytes > budget_bytes_ ||
      in_use_bytes_ > budget_bytes_ - additional_bytes) {
    return Status::ResourceExhausted(
        "workspace budget exceeded: need " + std::to_string(additional_bytes) +
        " more bytes with " + std::to_string(in_use_bytes_) +
        " in use, budget " + std::to_string(budget_bytes_));
  }
  return Status::OK();
}

void Workspace::Rearm(size_t budget_bytes) {
  if (!idle()) return;  // caller bug; keep the armed budget authoritative
  budget_bytes_ = budget_bytes;
  in_use_bytes_ = 0;
  high_water_bytes_ = 0;
}

size_t Workspace::capacity_bytes() const {
  size_t total = 0;
  for (const Slab& slab : slabs_) total += slab.capacity;
  return total;
}

Result<ScratchMatrix> ScratchMatrix::Acquire(Workspace* workspace, size_t rows,
                                             size_t cols) {
  if (workspace == nullptr) {
    return ScratchMatrix(nullptr, Matrix(rows, cols));
  }
  EM_ASSIGN_OR_RETURN(Matrix m, workspace->AcquireMatrix(rows, cols));
  return ScratchMatrix(workspace, std::move(m));
}

Result<ScratchIndices> ScratchIndices::Acquire(Workspace* workspace,
                                               size_t count) {
  if (workspace == nullptr) {
    std::vector<uint32_t> owned(count, 0u);
    const std::span<uint32_t> span(owned.data(), owned.size());
    return ScratchIndices(nullptr, span, std::move(owned));
  }
  EM_ASSIGN_OR_RETURN(std::span<uint32_t> span,
                      workspace->AcquireIndices(count));
  return ScratchIndices(workspace, span, {});
}

}  // namespace entmatcher
