#include "common/rng.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

namespace merch {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state, which xoshiro cannot escape.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDoubleInRange(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  have_cached_gaussian_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = NextBelow(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  assert(k <= n);
  // Floyd's algorithm keeps this O(k) in expectation without building a full
  // permutation, which matters when sampling pages out of TiB-scale spaces.
  std::vector<std::size_t> out;
  out.reserve(k);
  std::vector<bool> used;  // only grows when n is small
  if (n <= 1u << 20) {
    used.assign(n, false);
    for (std::size_t j = n - k; j < n; ++j) {
      const std::size_t t = NextBelow(j + 1);
      if (!used[t]) {
        used[t] = true;
        out.push_back(t);
      } else {
        used[j] = true;
        out.push_back(j);
      }
    }
  } else {
    // For huge n, collisions are rare enough to retry.
    std::vector<std::size_t> seen;
    seen.reserve(k);
    while (out.size() < k) {
      const std::size_t t = NextBelow(n);
      bool dup = false;
      for (const std::size_t s : seen) {
        if (s == t) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        seen.push_back(t);
        out.push_back(t);
      }
    }
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent)
    : n_(n), exponent_(exponent), cdf_(n) {
  assert(n > 0 && n - 1 <= std::numeric_limits<std::uint32_t>::max());
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;

  const std::size_t m = std::bit_ceil(n);
  guide_.resize(m + 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j <= m; ++j) {
    const double bound = static_cast<double>(j) / static_cast<double>(m);
    while (k < n - 1 && cdf_[k] < bound) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

std::size_t ZipfSampler::Rank(double u) const {
  // guide_.size() - 1 is m, a power of two: u * m is exact.
  const auto bucket =
      static_cast<std::size_t>(u * static_cast<double>(guide_.size() - 1));
  std::size_t k = guide_[bucket];
  while (k < n_ - 1 && cdf_[k] < u) ++k;
  return k;
}

double ZipfSampler::Pmf(std::size_t k) const {
  assert(k < n_);
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace merch
