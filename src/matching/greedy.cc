#include "matching/greedy.h"

#include "la/topk.h"
#include "matching/row_layout.h"
#include "matching/sparse_matchers.h"

namespace entmatcher {

namespace {

template <typename Rows>
Result<Assignment> Greedy(const Rows& rows, const char* who) {
  EM_RETURN_NOT_OK(ValidateScores(rows, who));
  Assignment assignment;
  assignment.target_of_source.assign(rows.rows(), Assignment::kUnmatched);
  ForEachRow(rows, 32, [&](size_t i, auto values, auto cols) {
    if (values.empty()) return;
    assignment.target_of_source[i] =
        static_cast<int32_t>(cols[RowArgmax(values)]);
  });
  return assignment;
}

}  // namespace

Result<Assignment> GreedyMatch(const Matrix& scores) {
  return Greedy(DenseRows(scores), "GreedyMatch");
}

Result<Assignment> SparseGreedyMatch(const SparseScores& scores) {
  return Greedy(CandidateRows(scores), "SparseGreedyMatch");
}

}  // namespace entmatcher
