#ifndef ENTMATCHER_MATCHING_SPARSE_TRANSFORMS_H_
#define ENTMATCHER_MATCHING_SPARSE_TRANSFORMS_H_

#include <cstddef>

#include "common/status.h"
#include "la/sparse.h"
#include "la/workspace.h"
#include "matching/types.h"

namespace entmatcher {

/// True when `kind` has a sparse (candidate-list) variant. Sinkhorn does not:
/// its row/column normalization couples every cell of the matrix, so a
/// candidate subset changes the result semantics rather than approximating
/// them, and it is refused with kInvalidArgument instead.
bool TransformSupportsSparse(ScoreTransformKind kind);

/// Arena bytes the sparse transform leases beyond the score entries
/// (the dense analog is TransformWorkspaceBytes). Only RInf needs scratch: an
/// nnz-sized rank buffer standing in for the dense m×n reverse table.
size_t SparseTransformWorkspaceBytes(const MatchOptions& options, size_t nnz);

/// Applies options.transform to the CSR entries in place.
///
/// Contract: when every row's candidate list covers the full target set, the
/// transformed entries are bit-identical to the dense transform of the same
/// scores. Both run one implementation per transform, written over a row
/// view of either layout (matching/row_layout.h): a complete candidate row
/// is the dense row's span (columns are stored ascending), and only the
/// column statistics are computed per layout, in the same row-ascending
/// order. With partial lists, row/column statistics and ranks are taken over
/// the present entries only — the candidate-restricted semantics of RInf-pb's
/// blocking, generalized to the other transforms.
///
/// Unsupported transforms (Sinkhorn) return kInvalidArgument.
Status ApplySparseScoreTransformInPlace(SparseScores* scores,
                                        const MatchOptions& options,
                                        Workspace* workspace);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_SPARSE_TRANSFORMS_H_
