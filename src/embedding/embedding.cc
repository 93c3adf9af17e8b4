#include "embedding/embedding.h"

#include <cstring>
#include <string>

namespace entmatcher {

Result<Matrix> ExtractRows(const Matrix& embeddings,
                           const std::vector<EntityId>& ids) {
  Matrix out(ids.size(), embeddings.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= embeddings.rows()) {
      return Status::InvalidArgument(
          "entity id " + std::to_string(ids[i]) +
          " has no row in an embedding matrix of " +
          std::to_string(embeddings.rows()) + " rows");
    }
    std::memcpy(out.Row(i).data(), embeddings.Row(ids[i]).data(),
                embeddings.cols() * sizeof(float));
  }
  return out;
}

}  // namespace entmatcher
