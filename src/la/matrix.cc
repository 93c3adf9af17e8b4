#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "la/kernels/dispatch.h"

namespace entmatcher {

void Matrix::Fill(float value) {
  std::fill(ptr_, ptr_ + size(), value);
}

void Matrix::Scale(float factor) {
  for (size_t i = 0; i < size(); ++i) ptr_[i] *= factor;
}

void Matrix::Add(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < size(); ++i) ptr_[i] += other.ptr_[i];
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  // Blocked transpose for cache friendliness on large score matrices.
  constexpr size_t kBlock = 64;
  for (size_t rb = 0; rb < rows_; rb += kBlock) {
    const size_t r_end = std::min(rows_, rb + kBlock);
    for (size_t cb = 0; cb < cols_; cb += kBlock) {
      const size_t c_end = std::min(cols_, cb + kBlock);
      for (size_t r = rb; r < r_end; ++r) {
        for (size_t c = cb; c < c_end; ++c) {
          out.At(c, r) = At(r, c);
        }
      }
    }
  }
  return out;
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix out(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == out.cols());
    std::memcpy(out.Row(r).data(), rows[r].data(),
                rows[r].size() * sizeof(float));
  }
  return out;
}

bool Matrix::ApproxEquals(const Matrix& other, float tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (std::fabs(ptr_[i] - other.ptr_[i]) > tol) return false;
  }
  return true;
}

Status MatMulTransposedRange(const Matrix& a, const Matrix& b,
                             size_t row_begin, size_t row_end, Matrix* out) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("MatMulTransposed: inner dimension mismatch");
  }
  if (row_begin > row_end || row_end > a.rows()) {
    return Status::OutOfRange("MatMulTransposedRange: bad row range");
  }
  const size_t count = row_end - row_begin;
  const size_t m = b.rows();
  const size_t d = a.cols();
  if (out->rows() != count || out->cols() != m) {
    return Status::InvalidArgument(
        "MatMulTransposedRange: output shape mismatch");
  }
  // The active tier's matmul_tile runs per chunk: it walks 32 x 32 cell
  // blocks, and each cell is one `dot` of an A row and a B row (no register
  // blocking), both traversed row-wise, which is contiguous for the B^T
  // formulation. Each output row
  // depends only on its own inputs, so A's rows are split across the pool,
  // and every cell is an independent dot product — chunk boundaries never
  // change a value.
  const KernelOps& ops = ActiveKernels();
  ParallelFor(0, count, 32, [&](size_t chunk_begin, size_t chunk_end) {
    ops.matmul_tile(a.Row(row_begin + chunk_begin).data(), a.cols(),
                    chunk_end - chunk_begin, b.data(), b.cols(), m, d,
                    out->Row(chunk_begin).data(), out->cols());
  });
  return Status::OK();
}

Result<Matrix> MatMulTransposed(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("MatMulTransposed: inner dimension mismatch");
  }
  Matrix c(a.rows(), b.rows());
  EM_RETURN_NOT_OK(MatMulTransposedRange(a, b, 0, a.rows(), &c));
  return c;
}

void L2NormalizeRows(Matrix* m) {
  const KernelOps& ops = ActiveKernels();
  const size_t d = m->cols();
  ParallelFor(0, m->rows(), 64, [&](size_t row_begin, size_t row_end) {
    for (size_t r = row_begin; r < row_end; ++r) {
      float* row = m->Row(r).data();
      const double sq = ops.squared_norm(row, d);
      if (sq <= 0.0) continue;
      const float inv = static_cast<float>(1.0 / std::sqrt(sq));
      ops.scale(row, d, inv);
    }
  });
}

}  // namespace entmatcher
