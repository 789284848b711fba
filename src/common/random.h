#ifndef STMAKER_COMMON_RANDOM_H_
#define STMAKER_COMMON_RANDOM_H_

/// \file
/// Deterministic xoshiro256** PRNG with distribution helpers.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stmaker {

/// \brief Deterministic xoshiro256** PRNG with distribution helpers.
///
/// Every stochastic component in the library (map generation, trajectory
/// simulation, POI placement) takes an explicit seed so that tests and
/// benchmark tables are reproducible run-to-run and across platforms; we do
/// not use std::mt19937 distributions because their output is not specified
/// identically across standard library implementations.
class Random {
 public:
  /// Seeds the generator via SplitMix64 so that nearby seeds give unrelated
  /// streams.
  explicit Random(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box–Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Non-positive total weight falls back to uniform.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t s_[4];
};

}  // namespace stmaker

#endif  // STMAKER_COMMON_RANDOM_H_
