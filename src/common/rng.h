// Deterministic pseudo-random number generation for simulation and ML.
//
// Everything in the repository that needs randomness takes an explicit Rng
// (or a seed) so simulations, training runs, and tests are reproducible.
#pragma once

#include <cassert>
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

  /// Uniform integer in [0, n). Requires n > 0. Inline, so a caller's
  /// draw loop hoists the rejection threshold (a division) out of the loop.
  std::uint64_t NextBelow(std::uint64_t n) {
    assert(n > 0);
    // Reject the low -n % n values so every residue is equally likely.
    const std::uint64_t threshold = -n % n;
    for (;;) {
      const std::uint64_t r = NextU64();
      if (r >= threshold) return r % n;
    }
  }

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
///
/// Sampling inverts the CDF through a guide table (Chen and Asau's indexed
/// search). With m the smallest power of two >= n, guide entry j holds the
/// smallest rank whose CDF reaches j/m; a draw u starts at entry floor(u*m)
/// and scans forward to the first rank whose CDF reaches u. Since m is a
/// power of two, u*m and j/m are exact, so the start never passes that
/// rank and Rank(u) is exactly what a binary search over cdf() returns.
/// A uniform u scans at most n/m <= 1 extra step on average, against
/// log2(n) for the search. The table holds m + 1 four-byte entries
/// (m < 2n) beside the CDF's n eight-byte ones.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Rank(u) of one NextDouble() draw.
  std::size_t Sample(Rng& rng) const { return Rank(rng.NextDouble()); }

  /// Inverse CDF: the smallest k with cdf()[k] >= u, or size() - 1 if
  /// there is none. Requires 0 <= u <= 1.
  std::size_t Rank(double u) const;

  /// Probability mass of rank k.
  double Pmf(std::size_t k) const;

  std::size_t size() const { return n_; }
  double exponent() const { return exponent_; }
  /// Cumulative distribution over ranks (non-decreasing, last entry 1).
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::size_t n_;
  double exponent_;
  std::vector<double> cdf_;
  /// m + 1 entries: guide_[j] = smallest k with cdf_[k] >= j/m, clamped
  /// to n - 1 (entry m serves u == 1).
  std::vector<std::uint32_t> guide_;
};

}  // namespace merch
