#ifndef ENTMATCHER_LA_MATRIX_H_
#define ENTMATCHER_LA_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace entmatcher {

/// Dense row-major float matrix. The workhorse of the library: entity
/// embeddings are (num_entities × dim) matrices and pairwise score tables are
/// (n × m) matrices.
///
/// A matrix either owns its buffer or borrows one (Matrix::Borrowed) — the
/// borrowed mode is how kernels write directly into Workspace arena memory.
/// Owned buffers register with MemoryTracker so benchmark harnesses can
/// report the deterministic peak workspace of each matching algorithm (paper
/// Fig. 5b, Table 6); borrowed buffers are accounted by their arena instead,
/// never double-counted here.
///
/// Movable and copyable; copies are deep and always owned, so copying a
/// borrowed matrix detaches it from the arena buffer. A borrowed matrix may
/// also co-own what keeps its buffer alive (a mapped file): moves carry
/// that owner along, copies drop it with the buffer.
class Matrix {
 public:
  /// An empty 0×0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// A zero-initialized rows×cols matrix (owned).
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f),
        ptr_(data_.data()) {
    MemoryTracker::Global().Add(ByteSize());
  }

  /// A non-owning matrix over an external buffer of rows*cols floats (arena
  /// memory). The buffer must outlive the matrix unless `owner` keeps it
  /// alive: the matrix and its moved-to successors hold `owner` until they
  /// die. The matrix does not touch MemoryTracker (the arena, or the
  /// owner, accounts for the bytes).
  static Matrix Borrowed(float* buffer, size_t rows, size_t cols,
                         std::shared_ptr<const void> owner = nullptr) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.ptr_ = buffer;
    m.borrowed_ = true;
    m.owner_ = std::move(owner);
    return m;
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_),
        data_(other.ptr_, other.ptr_ + other.size()), ptr_(data_.data()) {
    MemoryTracker::Global().Add(ByteSize());
  }

  Matrix& operator=(const Matrix& other) {
    if (this == &other) return *this;
    if (!borrowed_) MemoryTracker::Global().Sub(ByteSize());
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.assign(other.ptr_, other.ptr_ + other.size());
    ptr_ = data_.data();
    borrowed_ = false;
    owner_.reset();
    MemoryTracker::Global().Add(ByteSize());
    return *this;
  }

  Matrix(Matrix&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)),
        borrowed_(other.borrowed_), owner_(std::move(other.owner_)) {
    ptr_ = borrowed_ ? other.ptr_ : data_.data();
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
    other.ptr_ = nullptr;
    other.borrowed_ = false;
  }

  Matrix& operator=(Matrix&& other) noexcept {
    if (this == &other) return *this;
    if (!borrowed_) MemoryTracker::Global().Sub(ByteSize());
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    borrowed_ = other.borrowed_;
    owner_ = std::move(other.owner_);
    ptr_ = borrowed_ ? other.ptr_ : data_.data();
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
    other.ptr_ = nullptr;
    other.borrowed_ = false;
    return *this;
  }

  ~Matrix() {
    if (!borrowed_) MemoryTracker::Global().Sub(ByteSize());
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  size_t ByteSize() const { return size() * sizeof(float); }
  bool empty() const { return size() == 0; }

  /// True when the buffer is externally owned (arena memory).
  bool borrowed() const { return borrowed_; }

  float& At(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return ptr_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return ptr_[r * cols_ + c];
  }

  /// Mutable view of one row.
  std::span<float> Row(size_t r) {
    assert(r < rows_);
    return std::span<float>(ptr_ + r * cols_, cols_);
  }
  /// Read-only view of one row.
  std::span<const float> Row(size_t r) const {
    assert(r < rows_);
    return std::span<const float>(ptr_ + r * cols_, cols_);
  }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Elementwise in-place scale: this *= factor.
  void Scale(float factor);

  /// Elementwise in-place add: this += other. Shapes must match.
  void Add(const Matrix& other);

  /// Returns the transposed matrix.
  Matrix Transposed() const;

  /// Builds a matrix from nested initializer data (for tests).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// True iff shapes and all elements are equal within `tol`.
  bool ApproxEquals(const Matrix& other, float tol) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;      // backing storage when owned
  float* ptr_ = nullptr;         // element storage (owned or borrowed)
  bool borrowed_ = false;
  std::shared_ptr<const void> owner_;  // keeps a borrowed buffer alive
};

/// C = A * B^T where A is (n×d) and B is (m×d); returns (n×m).
/// This is the similarity-matrix building block (dot products of embedding
/// rows). Error if inner dimensions mismatch.
Result<Matrix> MatMulTransposed(const Matrix& a, const Matrix& b);

/// Tiled variant: computes rows [row_begin, row_end) of A * B^T into `out`,
/// which must be (row_end - row_begin) × b.rows(). Output row i of `out`
/// corresponds to A row (row_begin + i). Bit-identical to the same rows of
/// MatMulTransposed at every thread count — this is what lets the streaming
/// and dense paths share one execution layer.
Status MatMulTransposedRange(const Matrix& a, const Matrix& b,
                             size_t row_begin, size_t row_end, Matrix* out);

/// In-place L2 normalization of every row; zero rows are left unchanged.
void L2NormalizeRows(Matrix* m);

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_MATRIX_H_
