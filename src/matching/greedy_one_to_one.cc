#include "matching/greedy_one_to_one.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/memory_tracker.h"
#include "la/ranking.h"
#include "la/topk.h"
#include "matching/row_layout.h"
#include "matching/sparse_matchers.h"

namespace entmatcher {

namespace {

template <typename Rows>
Result<Assignment> GreedyOneToOne(const Rows& rows, const char* who) {
  EM_RETURN_NOT_OK(ValidateScores(rows, who));
  const size_t n = rows.rows();
  const size_t m = rows.cols();
  const size_t entries = rows.entries();

  // Sort all entry ids by descending score, ties by ascending id, through
  // la/ranking.h's order keys (a strict weak order also when a score is
  // NaN); the order buffer is the algorithm's dominant workspace. Entry ids
  // are row-major with ascending columns in both layouts, so ties resolve
  // alike.
  ScopedTrackedBytes tracked(entries * sizeof(uint64_t));
  std::vector<uint64_t> order(entries);
  std::iota(order.begin(), order.end(), uint64_t{0});
  const float* data = rows.data();
  std::sort(order.begin(), order.end(), [data](uint64_t a, uint64_t b) {
    const uint32_t key_a = OrderKey(data[a]);
    const uint32_t key_b = OrderKey(data[b]);
    if (key_a != key_b) return key_a < key_b;
    return a < b;
  });

  Assignment assignment;
  assignment.target_of_source.assign(n, Assignment::kUnmatched);
  std::vector<uint8_t> target_taken(m, 0);
  size_t matched = 0;
  const size_t capacity = std::min(n, m);
  const auto locate = rows.EntryLocator();
  for (uint64_t entry : order) {
    if (matched == capacity) break;
    const auto [i, j] = locate(entry);
    if (assignment.target_of_source[i] != Assignment::kUnmatched) continue;
    if (target_taken[j]) continue;
    assignment.target_of_source[i] = static_cast<int32_t>(j);
    target_taken[j] = 1;
    ++matched;
  }
  return assignment;
}

template <typename Rows>
Result<Assignment> MutualBest(const Rows& rows, const char* who) {
  EM_RETURN_NOT_OK(ValidateScores(rows, who));
  const size_t n = rows.rows();
  std::vector<int64_t> row_best(n, -1);
  ForEachRow(rows, 32, [&](size_t i, auto values, auto cols) {
    if (!values.empty()) row_best[i] = cols[RowArgmax(values)];
  });
  // Column argmax via one row-ascending pass (the first maximum wins).
  std::vector<int64_t> col_best(rows.cols(), -1);
  std::vector<float> col_best_val(rows.cols(),
                                  -std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < n; ++i) {
    const auto values = rows.Values(i);
    const auto cols = rows.Cols(i);
    for (size_t p = 0; p < values.size(); ++p) {
      if (values[p] > col_best_val[cols[p]]) {
        col_best_val[cols[p]] = values[p];
        col_best[cols[p]] = static_cast<int64_t>(i);
      }
    }
  }
  Assignment assignment;
  assignment.target_of_source.assign(n, Assignment::kUnmatched);
  for (size_t i = 0; i < n; ++i) {
    if (row_best[i] < 0) continue;
    const size_t j = static_cast<size_t>(row_best[i]);
    if (col_best[j] == static_cast<int64_t>(i)) {
      assignment.target_of_source[i] = static_cast<int32_t>(j);
    }
  }
  return assignment;
}

}  // namespace

Result<Assignment> GreedyOneToOneMatch(const Matrix& scores) {
  return GreedyOneToOne(DenseRows(scores), "GreedyOneToOneMatch");
}

Result<Assignment> SparseGreedyOneToOneMatch(const SparseScores& scores) {
  return GreedyOneToOne(CandidateRows(scores), "SparseGreedyOneToOneMatch");
}

Result<Assignment> MutualBestMatch(const Matrix& scores) {
  return MutualBest(DenseRows(scores), "MutualBestMatch");
}

Result<Assignment> SparseMutualBestMatch(const SparseScores& scores) {
  return MutualBest(CandidateRows(scores), "SparseMutualBestMatch");
}

}  // namespace entmatcher
