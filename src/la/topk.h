#ifndef ENTMATCHER_LA_TOPK_H_
#define ENTMATCHER_LA_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.h"

namespace entmatcher {

/// Index of the maximum element in each row; ties resolved to the lowest
/// index. Rows must be non-empty.
std::vector<uint32_t> RowArgmax(const Matrix& scores);

/// Maximum value in each row.
std::vector<float> RowMax(const Matrix& scores);

/// Maximum value in each column.
std::vector<float> ColMax(const Matrix& scores);

/// Folds every row of `rows`, in ascending order, into the running column
/// maxima `acc` (one entry per column). ColMax is this over an -inf start, so
/// folding a matrix's row blocks in order gives ColMax's bits.
void AccumulateColMax(const Matrix& rows, std::span<float> acc);

/// Mean of the k largest values of each row (CSLS's phi). k is clamped to the
/// row length; k must be >= 1.
std::vector<float> RowTopKMean(const Matrix& scores, size_t k);

/// Mean of the k largest values of each column, computed by streaming the
/// rows (no transposed copy — keeps CSLS at a single-matrix footprint).
/// k is clamped to the column length; k must be >= 1.
std::vector<float> ColTopKMean(const Matrix& scores, size_t k);

/// Indices of the k largest values of each row, sorted by descending value
/// (ties by ascending index). k is clamped to the row length. Result is a
/// flattened (rows × k') vector where k' = min(k, cols).
std::vector<uint32_t> RowTopKIndices(const Matrix& scores, size_t k);

/// Standard deviation of the k largest values of each row, averaged over all
/// rows. This is the statistic behind the paper's Figure 4 (STD of the top-5
/// pairwise similarity scores of source entities).
double MeanRowTopKStd(const Matrix& scores, size_t k);

// Span forms: the same statistics over one row of any score layout (a matrix
// row or a candidate list's values). The matrix functions above loop over
// these, so equal spans give equal bits in every layout.

/// Maximum of a non-empty row.
float RowMax(std::span<const float> row);

/// Position of the maximum of a non-empty row, ties to the lowest position.
size_t RowArgmax(std::span<const float> row);

/// Mean of the min(k, size) largest values of a non-empty row; k >= 1.
float RowTopKMean(std::span<const float> row, size_t k,
                  std::vector<float>* scratch);

/// The one row selection, at every kernel tier: sets *positions to the
/// positions of the kk = min(k, size) largest values of `row`, by (value
/// desc, position asc), and *values to those values in that order; returns
/// kk. RowTopKIndices, RowTopKMean and MeanRowTopKStd select the same way,
/// and the means sum the values in this order.
size_t RowTopKPositions(std::span<const float> row, size_t k,
                        std::vector<uint32_t>* positions,
                        std::vector<float>* values);

/// Per-column min-heaps (root first, -inf filled) of the largest values
/// offered: the one column top-k accumulator. A heap sees its values in
/// offer order, so a row-ascending sweep gives the same heap and heap-order
/// sum in every layout. Distinct columns may be updated concurrently.
class ColumnTopKHeaps {
 public:
  /// Column c keeps up to sizes[c] values; a size-0 column is never offered.
  explicit ColumnTopKHeaps(const std::vector<size_t>& sizes);

  /// Smallest retained value per column, contiguous (a mask_gt operand).
  const float* roots() const { return roots_.data(); }

  /// Admits v into column c unless v <= its root.
  void Offer(size_t c, float v) {
    if (!(v <= roots_[c])) Replace(c, v);
  }

  /// Replaces column c's root with v and sifts it down.
  void Replace(size_t c, float v) {
    float* heap = heaps_.data() + offsets_[c];
    const size_t kk = offsets_[c + 1] - offsets_[c];
    size_t i = 0;
    heap[0] = v;
    for (;;) {
      size_t smallest = i;
      const size_t left = 2 * i + 1;
      const size_t right = 2 * i + 2;
      if (left < kk && heap[left] < heap[smallest]) smallest = left;
      if (right < kk && heap[right] < heap[smallest]) smallest = right;
      if (smallest == i) break;
      std::swap(heap[i], heap[smallest]);
      i = smallest;
    }
    roots_[c] = heap[0];
  }

  /// Offers every row of `rows` (one column per heap, every heap of size
  /// >= 1) in ascending row order, columns split over the thread pool.
  /// ColTopKMean is this over one matrix, so offering a matrix's row blocks
  /// in order gives ColTopKMean's heaps.
  void OfferRows(const Matrix& rows);

  /// Mean of column c's heap, double-summed in heap order; 0 for size 0.
  float Mean(size_t c) const;

  /// Mean(c) of every column.
  std::vector<float> Means() const;

 private:
  std::vector<size_t> offsets_;  // cols + 1
  std::vector<float> heaps_;
  std::vector<float> roots_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_TOPK_H_
