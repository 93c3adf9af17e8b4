#ifndef ENTMATCHER_LA_WORKSPACE_H_
#define ENTMATCHER_LA_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"

namespace entmatcher {

/// Arena of reusable numeric buffers for the matching pipeline.
///
/// The paper's large-scale story (Table 6, Fig. 5b) is as much about peak
/// workspace as about F1: SMat goes OOM at DWY100K scale and RInf-wr/pb exist
/// purely to cut buffers. The workspace makes that budget first-class. Every
/// matrix-scale buffer of an engine query — the score matrix, transform
/// scratch, the padded assignment cost matrix, stable-matching preference
/// tables — is acquired here; acquisitions count against an optional hard
/// byte budget (exceeding it returns kResourceExhausted, turning Table 6's
/// "Mem: No" verdict into a real, clean error), and released buffers are
/// recycled so a warm engine runs allocation-free at steady state.
///
/// Acquire/Release mirror *logical* bytes into MemoryTracker: the tracker is
/// charged when a buffer is handed out and credited when it is returned, not
/// when the backing slab is malloc'd or freed. Tracker-based peak metrics are
/// therefore identical whether a buffer was freshly allocated or reused from
/// the pool (`MatchRun::peak_workspace_bytes` parity).
///
/// Not thread-safe: one workspace belongs to one engine/session and is used
/// from one thread at a time. Parallel kernels *inside* a query never touch
/// the arena (they write into already-acquired buffers), and parallel blocks
/// (PartitionedMatch) each construct their own engine with its own workspace.
class Workspace {
 public:
  /// `budget_bytes` caps the logically in-use bytes; 0 means unlimited.
  explicit Workspace(size_t budget_bytes = 0) : budget_bytes_(budget_bytes) {}

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  ~Workspace();

  /// Leases a zero-filled rows×cols borrowed matrix from the pool (the
  /// zero-fill matches `Matrix(rows, cols)` so pooled and fresh buffers are
  /// indistinguishable). Fails with kResourceExhausted when the budget would
  /// be exceeded, kInvalidArgument on empty or overflowing shapes.
  Result<Matrix> AcquireMatrix(size_t rows, size_t cols);

  /// Leases `count` zero-initialized uint32 indices (preference tables).
  Result<std::span<uint32_t>> AcquireIndices(size_t count);

  /// Returns a leased matrix (matched by buffer address) to the pool. The
  /// matrix must have come from AcquireMatrix on this workspace.
  void Release(const Matrix& matrix);

  /// Returns a leased index buffer to the pool.
  void Release(std::span<uint32_t> indices);

  /// OK iff `additional_bytes` more could be acquired right now without
  /// exceeding the budget. Lets callers reject a whole query up front
  /// instead of failing halfway through.
  Status CheckBudget(size_t additional_bytes) const;

  /// The hard cap in bytes (0 = unlimited).
  size_t budget_bytes() const { return budget_bytes_; }

  /// Logically leased bytes right now.
  size_t in_use_bytes() const { return in_use_bytes_; }

  /// Maximum of in_use_bytes() since construction / the last ResetHighWater.
  size_t high_water_bytes() const { return high_water_bytes_; }

  /// Starts a new high-water measurement region (e.g. one engine query).
  void ResetHighWater() { high_water_bytes_ = in_use_bytes_; }

  /// True when no leases are outstanding — the only state in which the arena
  /// may be handed to a new owner (engine recycling across snapshot swaps).
  bool idle() const { return leases_.empty(); }

  /// Re-arms the budget for a new owning session (MatchEngine::Over's
  /// workspace recycling: a worker rebuilding its engine for snapshot v+1
  /// keeps the warm slabs instead of re-growing a fresh arena). Only legal
  /// while idle(); the high-water region restarts at zero.
  void Rearm(size_t budget_bytes);

  /// Total bytes of backing slabs held (leased or pooled). Stable across
  /// warm queries once the pool has seen the largest request.
  size_t capacity_bytes() const;

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> bytes;
    size_t capacity = 0;
    bool leased = false;
  };
  struct Lease {
    const std::byte* ptr = nullptr;
    size_t bytes = 0;  // logical (requested) size, what the budget tracks
    size_t slab = 0;
  };

  Result<std::byte*> AcquireBytes(size_t bytes);
  void ReleaseBytes(const std::byte* ptr);

  size_t budget_bytes_;
  size_t in_use_bytes_ = 0;
  size_t high_water_bytes_ = 0;
  std::vector<Slab> slabs_;
  std::vector<Lease> leases_;
};

/// RAII lease of a workspace matrix. With a null workspace it degrades to a
/// plain owned Matrix, so kernels can offer arena reuse without forking their
/// control flow.
class ScratchMatrix {
 public:
  static Result<ScratchMatrix> Acquire(Workspace* workspace, size_t rows,
                                       size_t cols);

  ScratchMatrix(ScratchMatrix&& other) noexcept
      : workspace_(other.workspace_), matrix_(std::move(other.matrix_)) {
    other.workspace_ = nullptr;
  }
  ScratchMatrix& operator=(ScratchMatrix&& other) noexcept {
    if (this == &other) return *this;
    ReleaseNow();
    workspace_ = other.workspace_;
    matrix_ = std::move(other.matrix_);
    other.workspace_ = nullptr;
    return *this;
  }
  ScratchMatrix(const ScratchMatrix&) = delete;
  ScratchMatrix& operator=(const ScratchMatrix&) = delete;

  ~ScratchMatrix() { ReleaseNow(); }

  Matrix& get() { return matrix_; }
  const Matrix& get() const { return matrix_; }

 private:
  ScratchMatrix(Workspace* workspace, Matrix matrix)
      : workspace_(workspace), matrix_(std::move(matrix)) {}

  void ReleaseNow() {
    if (workspace_ != nullptr) {
      workspace_->Release(matrix_);
      workspace_ = nullptr;
    }
    matrix_ = Matrix();
  }

  Workspace* workspace_ = nullptr;  // null => matrix_ is plain owned memory
  Matrix matrix_;
};

/// RAII lease of a workspace index buffer; owned-vector fallback when the
/// workspace is null.
class ScratchIndices {
 public:
  static Result<ScratchIndices> Acquire(Workspace* workspace, size_t count);

  ScratchIndices(ScratchIndices&& other) noexcept
      : workspace_(other.workspace_), span_(other.span_),
        owned_(std::move(other.owned_)) {
    other.workspace_ = nullptr;
    other.span_ = {};
  }
  ScratchIndices& operator=(ScratchIndices&& other) noexcept {
    if (this == &other) return *this;
    ReleaseNow();
    workspace_ = other.workspace_;
    span_ = other.span_;
    owned_ = std::move(other.owned_);
    other.workspace_ = nullptr;
    other.span_ = {};
    return *this;
  }
  ScratchIndices(const ScratchIndices&) = delete;
  ScratchIndices& operator=(const ScratchIndices&) = delete;

  ~ScratchIndices() { ReleaseNow(); }

  std::span<uint32_t> get() const { return span_; }

 private:
  ScratchIndices(Workspace* workspace, std::span<uint32_t> span,
                 std::vector<uint32_t> owned)
      : workspace_(workspace), span_(span), owned_(std::move(owned)) {}

  void ReleaseNow() {
    if (workspace_ != nullptr) {
      workspace_->Release(span_);
      workspace_ = nullptr;
    }
    span_ = {};
    owned_.clear();
  }

  Workspace* workspace_ = nullptr;
  std::span<uint32_t> span_;
  std::vector<uint32_t> owned_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_WORKSPACE_H_
