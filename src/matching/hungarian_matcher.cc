#include "matching/hungarian_matcher.h"

#include <algorithm>

#include "la/matrix_io.h"
#include "matching/lap.h"

namespace entmatcher {

Result<Assignment> HungarianMatch(const Matrix& scores, Workspace* workspace) {
  if (scores.rows() == 0 || scores.cols() == 0) {
    return Status::InvalidArgument("HungarianMatch: empty score matrix");
  }
  const size_t n = scores.rows();
  const size_t m = scores.cols();
  const size_t side = std::max(n, m);

  // Cost = score_max - score (minimization); dummy cells cost slightly more
  // than the worst real cell so they are only used when forced. NaN and
  // infinity have no place in that order (the solver can spin on them):
  // v - v is NaN exactly for those, so its sum flags them branch-free.
  float lo = scores.At(0, 0);
  float hi = lo;
  float poison = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    for (float v : scores.Row(i)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      poison += v - v;
    }
  }
  if (poison != 0.0f) return ValidateMatrixFinite(scores, "HungarianMatch");
  const float range = hi - lo;
  const float dummy_cost = range + 1.0f;

  // The LAP solver only reads the cost matrix, so an arena buffer can be
  // leased for it and recycled on the next query.
  EM_ASSIGN_OR_RETURN(ScratchMatrix cost_lease,
                      ScratchMatrix::Acquire(workspace, side, side));
  Matrix& cost = cost_lease.get();
  cost.Fill(dummy_cost);
  for (size_t i = 0; i < n; ++i) {
    const float* srow = scores.Row(i).data();
    float* crow = cost.Row(i).data();
    for (size_t j = 0; j < m; ++j) crow[j] = hi - srow[j];
  }

  EM_ASSIGN_OR_RETURN(LapSolution solution, SolveLapMin(cost));

  Assignment assignment;
  assignment.target_of_source.assign(n, Assignment::kUnmatched);
  for (size_t i = 0; i < n; ++i) {
    const int32_t j = solution.col_of_row[i];
    if (j >= 0 && static_cast<size_t>(j) < m) {
      assignment.target_of_source[i] = j;
    }
  }
  return assignment;
}

}  // namespace entmatcher
