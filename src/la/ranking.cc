#include "la/ranking.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace entmatcher {

namespace {

// Below this length a comparison sort beats the radix passes, whose four
// 256-bucket histograms cost the same at any length.
constexpr size_t kShortRow = 64;

// Sorts entries[0, len) ascending, where each entry is key << 32 |
// position, so ascending 64-bit order is (key, position) order and a
// comparison sort gets it directly; the radix passes sort by the key bytes
// only and keep ties in their position-ascending input order, because every
// pass is stable. `spare` is a second len-entry buffer; returns whichever of
// the two holds the result.
const uint64_t* SortEntries(uint64_t* entries, uint64_t* spare, size_t len) {
  if (len < kShortRow) {
    std::sort(entries, entries + len);
    return entries;
  }
  uint32_t counts[4][256] = {};
  for (size_t p = 0; p < len; ++p) {
    const uint32_t key = static_cast<uint32_t>(entries[p] >> 32);
    ++counts[0][key & 0xFF];
    ++counts[1][(key >> 8) & 0xFF];
    ++counts[2][(key >> 16) & 0xFF];
    ++counts[3][key >> 24];
  }
  for (unsigned pass = 0; pass < 4; ++pass) {
    const unsigned shift = 32 + 8 * pass;
    uint32_t* next = counts[pass];
    // A byte every key shares leaves the order as it is.
    if (next[(entries[0] >> shift) & 0xFF] == len) continue;
    uint32_t sum = 0;
    for (uint32_t& count : std::span(next, 256)) {
      sum += std::exchange(count, sum);
    }
    for (size_t p = 0; p < len; ++p) {
      spare[next[(entries[p] >> shift) & 0xFF]++] = entries[p];
    }
    std::swap(entries, spare);
  }
  return entries;
}

// Positions 0..len sorted by (key_at(p) ascending, p ascending), as
// entries (position in the low 32 bits) that live in *scratch.
template <typename KeyAt>
std::span<const uint64_t> SortedEntries(size_t len, KeyAt key_at,
                                        std::vector<uint64_t>* scratch) {
  if (scratch->size() < 2 * len) scratch->resize(2 * len);
  uint64_t* entries = scratch->data();
  for (size_t p = 0; p < len; ++p) {
    entries[p] = uint64_t{key_at(p)} << 32 | p;
  }
  return {SortEntries(entries, entries + len, len), len};
}

}  // namespace

void OrderByKey(std::span<const uint32_t> keys, std::span<uint32_t> order,
                std::vector<uint64_t>* scratch) {
  const auto sorted = SortedEntries(
      keys.size(), [keys](size_t p) { return keys[p]; }, scratch);
  for (size_t pos = 0; pos < sorted.size(); ++pos) {
    order[pos] = static_cast<uint32_t>(sorted[pos]);
  }
}

void OrderDescending(std::span<const float> values, std::span<uint32_t> order,
                     std::vector<uint64_t>* scratch) {
  const auto sorted = SortedEntries(
      values.size(), [values](size_t p) { return OrderKey(values[p]); },
      scratch);
  for (size_t pos = 0; pos < sorted.size(); ++pos) {
    order[pos] = static_cast<uint32_t>(sorted[pos]);
  }
}

void RankRowInPlace(std::span<float> row, std::vector<uint64_t>* scratch) {
  const auto sorted = SortedEntries(
      row.size(), [row](size_t p) { return OrderKey(row[p]); }, scratch);
  // The entries hold the row's order; overwriting the values is now safe.
  for (size_t pos = 0; pos < sorted.size(); ++pos) {
    row[static_cast<uint32_t>(sorted[pos])] = static_cast<float>(pos + 1);
  }
}

void RowRankMatrixInPlace(Matrix* scores) {
  ParallelFor(0, scores->rows(), 4, [&](size_t row_begin, size_t row_end) {
    std::vector<uint64_t> scratch;
    for (size_t r = row_begin; r < row_end; ++r) {
      RankRowInPlace(scores->Row(r), &scratch);
    }
  });
}

}  // namespace entmatcher
