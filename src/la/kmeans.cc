#include "la/kmeans.h"

#include <algorithm>
#include <limits>

#include "la/kernels/dispatch.h"

namespace entmatcher {

KMeansResult CosineKMeans(const Matrix& points, size_t k, size_t iterations,
                          Rng* rng) {
  const size_t n = points.rows();
  const size_t dim = points.cols();
  Matrix normalized = points;
  L2NormalizeRows(&normalized);

  // k-means++-lite init: random distinct rows.
  std::vector<size_t> centroid_rows;
  {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng->Shuffle(&order);
    for (size_t c = 0; c < k; ++c) centroid_rows.push_back(order[c % n]);
  }
  Matrix centroids(k, dim);
  for (size_t c = 0; c < k; ++c) {
    std::copy(normalized.Row(centroid_rows[c]).begin(),
              normalized.Row(centroid_rows[c]).end(),
              centroids.Row(c).begin());
  }

  std::vector<uint32_t> assignment(n, 0);
  for (size_t it = 0; it < iterations; ++it) {
    // Assign to the most similar centroid.
    for (size_t i = 0; i < n; ++i) {
      const float* x = normalized.Row(i).data();
      float best = -std::numeric_limits<float>::infinity();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const float dot = Dot(x, centroids.Row(c).data(), dim);
        if (dot > best) {
          best = dot;
          best_c = static_cast<uint32_t>(c);
        }
      }
      assignment[i] = best_c;
    }
    // Recompute centroids (mean direction).
    centroids.Fill(0.0f);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      float* mu = centroids.Row(assignment[i]).data();
      const float* x = normalized.Row(i).data();
      for (size_t d = 0; d < dim; ++d) mu[d] += x[d];
      ++counts[assignment[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with a random point.
        const size_t row = rng->NextBounded(n);
        std::copy(normalized.Row(row).begin(), normalized.Row(row).end(),
                  centroids.Row(c).begin());
      }
    }
    L2NormalizeRows(&centroids);
  }
  return KMeansResult{std::move(assignment), std::move(centroids)};
}

}  // namespace entmatcher
