#ifndef ENTMATCHER_EMBEDDING_EMBEDDING_H_
#define ENTMATCHER_EMBEDDING_EMBEDDING_H_

#include <vector>

#include "kg/triple.h"
#include "la/matrix.h"

namespace entmatcher {

/// Unified entity embeddings for one KG pair: row e of `source` is the
/// vector of source-KG entity e, likewise for `target`. Both sides always
/// share the same dimensionality (they live in one unified space — paper
/// Sec. 2.1).
struct EmbeddingPair {
  Matrix source;
  Matrix target;

  size_t dim() const { return source.cols(); }
};

/// Gathers the rows listed in `ids` into a dense (ids.size() × dim) matrix.
/// Used to cut the test-candidate submatrices fed into matching, so every
/// join of a dataset with embeddings passes here: kInvalidArgument names
/// the first id the matrix has no row for.
Result<Matrix> ExtractRows(const Matrix& embeddings,
                           const std::vector<EntityId>& ids);

}  // namespace entmatcher

#endif  // ENTMATCHER_EMBEDDING_EMBEDDING_H_
