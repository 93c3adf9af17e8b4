#include "la/ranking.h"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.h"

namespace entmatcher {

void RankRowInPlace(std::span<float> row, std::vector<uint32_t>* order) {
  order->resize(row.size());
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [row](uint32_t a, uint32_t b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  });
  // The sort has consumed the row's values; overwriting is now safe.
  for (size_t pos = 0; pos < order->size(); ++pos) {
    row[(*order)[pos]] = static_cast<float>(pos + 1);
  }
}

Matrix RowRankMatrix(const Matrix& scores) {
  Matrix ranks = scores;
  RowRankMatrixInPlace(&ranks);
  return ranks;
}

void RowRankMatrixInPlace(Matrix* scores) {
  ParallelFor(0, scores->rows(), 4, [&](size_t row_begin, size_t row_end) {
    std::vector<uint32_t> order;
    for (size_t r = row_begin; r < row_end; ++r) {
      RankRowInPlace(scores->Row(r), &order);
    }
  });
}

}  // namespace entmatcher
