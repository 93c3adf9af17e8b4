#ifndef ENTMATCHER_MATCHING_ROW_LAYOUT_H_
#define ENTMATCHER_MATCHING_ROW_LAYOUT_H_

// Private to src/matching: the two score layouts, seen row by row. Row i of a
// view is a value span plus the column id of each position. Dense rows hold
// every column and a column is its position; candidate rows are a CSR row's
// values and its ascending column ids, so a complete candidate row is the
// dense row. Each sparse-capable transform and decision is one template over
// a view (transforms.cc, greedy.cc, greedy_one_to_one.cc), and its dense and
// sparse entry points both call it; only the column side below is written
// per layout (dense below and in transforms.cc, CSR in
// sparse_transforms.cc).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "la/matrix.h"
#include "la/ranking.h"
#include "la/sparse.h"
#include "la/topk.h"
#include "la/workspace.h"
#include "matching/types.h"

namespace entmatcher {

/// Column ids of a dense row: position p is column p (kept size_t so a
/// column-indexed load stays a contiguous, vectorizable access).
struct DenseCols {
  size_t operator[](size_t p) const { return p; }
};

/// M is Matrix (transforms) or const Matrix (matchers). Entry ids are
/// row-major cell ids.
template <typename M>
class DenseRows {
 public:
  explicit DenseRows(M& scores) : scores_(&scores) {}
  size_t rows() const { return scores_->rows(); }
  size_t cols() const { return scores_->cols(); }
  size_t entries() const { return rows() * cols(); }
  auto Values(size_t i) const { return scores_->Row(i); }
  DenseCols Cols(size_t) const { return {}; }
  auto data() const { return scores_->data(); }
  /// Entry id -> (row, column).
  auto EntryLocator() const {
    return [m = cols()](uint64_t e) {
      return std::pair<size_t, size_t>(e / m, e % m);
    };
  }
  M& scores() const { return *scores_; }

 private:
  M* scores_;
};

/// S is SparseScores or const SparseScores. Entry ids are CSR entry indices,
/// which order entries as the dense cell ids do.
template <typename S>
class CandidateRows {
 public:
  explicit CandidateRows(S& scores) : scores_(&scores) {}
  size_t rows() const { return scores_->rows(); }
  size_t cols() const { return scores_->cols(); }
  size_t entries() const { return scores_->nnz(); }
  auto Values(size_t i) const { return scores_->RowValues(i); }
  std::span<const uint32_t> Cols(size_t i) const { return scores_->RowCols(i); }
  auto data() const { return scores_->values(); }
  /// Entry id -> (row, column), through a row table built here (O(nnz)).
  auto EntryLocator() const {
    std::vector<uint32_t> row_of(entries());
    const std::vector<size_t>& offsets = scores_->row_offsets();
    for (size_t r = 0; r < rows(); ++r) {
      std::fill(row_of.begin() + offsets[r], row_of.begin() + offsets[r + 1],
                static_cast<uint32_t>(r));
    }
    return [row_of = std::move(row_of), cols = scores_->col_indices()](
               uint64_t e) {
      return std::pair<size_t, size_t>(row_of[e], cols[e]);
    };
  }
  S& scores() const { return *scores_; }

 private:
  S* scores_;
};

using DenseScoreRows = DenseRows<Matrix>;
using CandidateScoreRows = CandidateRows<SparseScores>;

/// kInvalidArgument "<who>: empty score matrix" unless both sides are
/// non-empty.
template <typename Scores>
Status ValidateScores(const Scores& scores, const char* who) {
  if (scores.rows() == 0 || scores.cols() == 0) {
    return Status::InvalidArgument(std::string(who) + ": empty score matrix");
  }
  return Status::OK();
}

/// Calls f(i, values, cols) for every row, rows split over the thread pool.
template <typename Rows, typename F>
void ForEachRow(const Rows& rows, size_t grain, F&& f) {
  ParallelFor(0, rows.rows(), grain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) f(i, rows.Values(i), rows.Cols(i));
  });
}

/// Per-row max and top-k mean; an empty row gets 0, which nothing reads.
template <typename Rows>
std::vector<float> RowMaxes(const Rows& rows) {
  std::vector<float> out(rows.rows(), 0.0f);
  ForEachRow(rows, 32, [&](size_t i, auto values, auto) {
    if (!values.empty()) out[i] = RowMax(values);
  });
  return out;
}

template <typename Rows>
std::vector<float> RowTopKMeans(const Rows& rows, size_t k) {
  std::vector<float> out(rows.rows(), 0.0f);
  ParallelFor(0, rows.rows(), 16, [&](size_t begin, size_t end) {
    std::vector<float> scratch;
    for (size_t i = begin; i < end; ++i) {
      const auto values = rows.Values(i);
      if (!values.empty()) out[i] = RowTopKMean(values, k, &scratch);
    }
  });
  return out;
}

// Column side, one definition per layout. -----------------------------------

/// Per-column max and top-k mean; an entry-less column gets -inf / 0.
inline std::vector<float> ColumnMaxes(const DenseScoreRows& rows) {
  return ColMax(rows.scores());
}
std::vector<float> ColumnMaxes(const CandidateScoreRows& rows);
inline std::vector<float> ColumnTopKMeans(const DenseScoreRows& rows,
                                          size_t k) {
  return ColTopKMean(rows.scores(), k);
}
std::vector<float> ColumnTopKMeans(const CandidateScoreRows& rows, size_t k);

/// RInf's reverse preference table, one slot per entry. Dense leases the
/// transposed cols × rows table (its rows are the target-side lists); CSR
/// leases one slot per stored entry. ReverseSlots(rows, table, i)(p) is the
/// slot of row i, position p.
inline Result<ScratchMatrix> AcquireReverseTable(const DenseScoreRows& rows,
                                                 Workspace* workspace) {
  return ScratchMatrix::Acquire(workspace, rows.cols(), rows.rows());
}
inline Result<ScratchMatrix> AcquireReverseTable(
    const CandidateScoreRows& rows, Workspace* workspace) {
  return ScratchMatrix::Acquire(workspace, 1, rows.entries());
}
inline auto ReverseSlots(const DenseScoreRows& rows, Matrix* table, size_t i) {
  return [base = table->data() + i, stride = rows.rows()](size_t p) -> float& {
    return base[p * stride];
  };
}
inline auto ReverseSlots(const CandidateScoreRows& rows, Matrix* table,
                         size_t i) {
  return [base = table->data() + rows.scores().row_offsets()[i]](
             size_t p) -> float& { return base[p]; };
}

/// Replaces each reverse slot with its rank in its column (value desc, row
/// asc).
inline void RankReverseTable(const DenseScoreRows&, Matrix* table) {
  RowRankMatrixInPlace(table);
}
void RankReverseTable(const CandidateScoreRows& rows, Matrix* table);

/// RInf-pb's target-side blocks: per column j, up to c rows ranked by
/// (score - row_max[row] desc, row asc) in (*candidates)[j * c + q], the
/// block length in (*lengths)[j].
void TargetCandidates(const DenseScoreRows& rows,
                      const std::vector<float>& row_max, size_t c,
                      std::vector<uint32_t>* candidates,
                      std::vector<size_t>* lengths);
void TargetCandidates(const CandidateScoreRows& rows,
                      const std::vector<float>& row_max, size_t c,
                      std::vector<uint32_t>* candidates,
                      std::vector<size_t>* lengths);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_ROW_LAYOUT_H_
