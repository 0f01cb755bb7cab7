// Deterministic pseudo-random number generation for simulation and ML.
//
// Everything in the repository that needs randomness takes an explicit Rng
// (or a seed) so simulations, training runs, and tests are reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace merch {

/// xoshiro256++ with splitmix64 seeding. Small, fast, and good enough for
/// workload synthesis and bootstrap sampling; not for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t NextU64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t NextBelow(std::uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double NextDoubleInRange(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma);

  /// True with probability p.
  bool NextBernoulli(double p);

  /// Derive an independent child generator (for per-task streams).
  Rng Fork();

  /// Fisher-Yates shuffle of indices [0, n). Returned vector holds the
  /// permutation.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Sample k distinct indices from [0, n) without replacement (k <= n).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

 private:
  std::uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Zipf(s) sampler over ranks [0, n). Used to synthesise skewed page heat
/// (hot-page distributions) and power-law graph degrees.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t Sample(Rng& rng) const;

  /// Probability mass of rank k.
  double Pmf(std::size_t k) const;

  std::size_t size() const { return n_; }
  double exponent() const { return exponent_; }

 private:
  std::size_t n_;
  double exponent_;
  std::vector<double> cdf_;  // cumulative distribution over ranks
};

}  // namespace merch
