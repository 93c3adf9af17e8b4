#ifndef ENTMATCHER_LA_RANKING_H_
#define ENTMATCHER_LA_RANKING_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "la/matrix.h"

namespace entmatcher {

/// The one ordering contract behind RInf's rank tables and both Gale–Shapley
/// preference tables: positions ordered by (value descending, position
/// ascending). OrderKey maps a score to a 32-bit key whose ascending order is
/// the score's descending order, with -0 folded into +0 (the two compare
/// equal, so they tie by position) and every NaN placed after -inf (NaN has
/// no place in a float comparison; here it sorts as a value below -inf).
inline uint32_t OrderKey(float value) {
  if (value != value) return UINT32_MAX;
  const uint32_t bits = std::bit_cast<uint32_t>(value == 0.0f ? 0.0f : value);
  // Non-negative scores flip their magnitude bits (larger value, smaller
  // key, all below 2^31); negative ones keep theirs (more negative, larger
  // key, all from 2^31 up).
  return bits & 0x80000000u ? bits : bits ^ 0x7FFFFFFFu;
}

/// Writes to order[0, keys.size()) the positions of `keys` sorted by (key
/// ascending, position ascending). Rows of at least a fixed length go
/// through a stable LSD radix sort, O(length) per row; shorter rows, where
/// the radix histograms cost more than they save, through a comparison sort
/// of the same keys, so both give one order. `scratch` is a reusable buffer
/// (2 × length 64-bit words).
void OrderByKey(std::span<const uint32_t> keys, std::span<uint32_t> order,
                std::vector<uint64_t>* scratch);

/// OrderByKey over OrderKey(values[p]): positions by (value descending,
/// position ascending).
void OrderDescending(std::span<const float> values, std::span<uint32_t> order,
                     std::vector<uint64_t>* scratch);

/// Overwrites row[p] with its 1-based rank in OrderDescending's order (rank 1
/// = most preferred). This is the ranking step of the RInf algorithm (paper
/// Alg. 5, line 6). The row is ordered through `scratch` before it is
/// overwritten, so ranking needs no second row-size float buffer.
void RankRowInPlace(std::span<float> row, std::vector<uint64_t>* scratch);

/// RankRowInPlace over every row, rows split over the thread pool. RInf's
/// ranking keeps the paper's O(n^2) space: two live score-size buffers (the
/// scores and the reverse table), each ranked in place. Its time is O(n·m)
/// per table, below the paper's O(n^2 lg n), which is the comparison-sort
/// bound.
void RowRankMatrixInPlace(Matrix* scores);

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_RANKING_H_
