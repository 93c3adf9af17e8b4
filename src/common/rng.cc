#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace entmatcher {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  // xoshiro256**
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Unbiased rejection sampling (Lemire-style threshold).
  const uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller transform. Guard against log(0).
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

uint64_t Rng::NextZipf(uint64_t n, double exponent) {
  assert(n > 0);
  if (n == 1) return 0;
  // Inverse-CDF sampling via the approximate closed form of the generalized
  // harmonic partial sums. Accurate enough for workload generation.
  if (exponent == 1.0) exponent = 1.0 + 1e-9;
  const double one_minus_e = 1.0 - exponent;
  const double h_n = (std::pow(static_cast<double>(n) + 1.0, one_minus_e) - 1.0) /
                     one_minus_e;
  const double u = NextDouble() * h_n;
  const double x = std::pow(u * one_minus_e + 1.0, 1.0 / one_minus_e) - 1.0;
  uint64_t result = static_cast<uint64_t>(x);
  if (result >= n) result = n - 1;
  return result;
}

Rng Rng::Fork(uint64_t label) const {
  // Mix the original seed with the label through splitmix to decorrelate.
  uint64_t mixed = seed_ ^ (0x632be59bd9b4e019ULL * (label + 1));
  SplitMix64(&mixed);
  return Rng(mixed);
}

}  // namespace entmatcher
