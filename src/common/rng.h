#ifndef ENTMATCHER_COMMON_RNG_H_
#define ENTMATCHER_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace entmatcher {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component in the library takes an explicit
/// seed so that datasets, embeddings, and experiments are fully reproducible.
///
/// Not thread-safe; use one instance per thread.
class Rng {
 public:
  /// Seeds the generator. Equal seeds produce identical streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses unbiased
  /// rejection sampling.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal variate (Box–Muller; caches the second value).
  double NextGaussian();

  /// Normal variate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// True with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Zipf-like integer in [0, n): probability of i proportional to
  /// 1 / (i + 1)^exponent. Used for power-law degree distributions.
  /// `n` must be > 0.
  uint64_t NextZipf(uint64_t n, double exponent);

  /// Fisher–Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Derives an independent child generator; children with distinct labels
  /// produce independent streams even from the same parent seed.
  Rng Fork(uint64_t label) const;

 private:
  uint64_t state_[4];
  uint64_t seed_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_COMMON_RNG_H_
