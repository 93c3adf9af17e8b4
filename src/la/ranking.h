#ifndef ENTMATCHER_LA_RANKING_H_
#define ENTMATCHER_LA_RANKING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "la/matrix.h"

namespace entmatcher {

/// Converts a preference/score matrix into a ranking matrix: R(u, v) is the
/// 1-based rank of v among row u's values in *descending* order (rank 1 =
/// most preferred). Ties are broken by ascending column index, which keeps
/// the operation deterministic.
///
/// This is the ranking step of the RInf algorithm (paper Alg. 5, line 6). It
/// allocates one extra index buffer per call but the output matrix dominates:
/// O(n^2) space, O(n^2 log n) time — exactly the costs the paper attributes
/// to RInf.
Matrix RowRankMatrix(const Matrix& scores);

/// In-place variant: overwrites each row of `scores` with its rank values
/// (identical output to RowRankMatrix). Each row is sorted through an index
/// buffer first and only then overwritten, so no extra n×m matrix is needed —
/// this is what lets RInf run at two live score-size buffers instead of
/// three.
void RowRankMatrixInPlace(Matrix* scores);

/// Span form, one row of any layout: overwrites row[p] with its 1-based rank
/// in descending order, ties by ascending position. `order` is a reusable
/// index buffer.
void RankRowInPlace(std::span<float> row, std::vector<uint32_t>* order);

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_RANKING_H_
