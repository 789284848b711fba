#include "common/random.h"

#include <cmath>

#include "common/check.h"

namespace stmaker {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Random::Next() {
  const uint64_t result = RotL(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

double Random::Uniform() {
  // 53 random mantissa bits → uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Random::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform();
}

uint64_t Random::UniformInt(uint64_t n) {
  STMAKER_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  STMAKER_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Random::Normal() {
  // Box–Muller; discard the second variate for simplicity.
  double u1 = Uniform();
  double u2 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Random::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Random::Bernoulli(double p) { return Uniform() < p; }

double Random::Exponential(double mean) {
  STMAKER_CHECK(mean > 0);
  double u = Uniform();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

uint64_t Random::Zipf(uint64_t n, double s) {
  STMAKER_CHECK(n > 0);
  // Inverse-CDF over the (cached-free) harmonic weights. n is small in our
  // use (number of landmarks), so a linear scan is acceptable and exact.
  double total = 0;
  for (uint64_t k = 0; k < n; ++k) total += 1.0 / std::pow(k + 1.0, s);
  double target = Uniform() * total;
  double acc = 0;
  for (uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(k + 1.0, s);
    if (acc >= target) return k;
  }
  return n - 1;
}

size_t Random::WeightedIndex(const std::vector<double>& weights) {
  STMAKER_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    if (w > 0) total += w;
  }
  if (total <= 0) return UniformInt(weights.size());
  double target = Uniform() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0) acc += weights[i];
    if (acc >= target) return i;
  }
  return weights.size() - 1;
}

}  // namespace stmaker
