// Page-heat profiles: how an object's accesses distribute over its pages.
//
// Pages inside an object are indexed in heat order (index 0 = hottest; see
// hm/page_table.h). A HeatProfile gives the fraction of the object's
// accesses landing on each page. Uniform heat models dense sweeps; Zipf
// heat models the skewed hot/cold structure of sparse and pointer-based
// data, which is what makes hot-page detection (and its per-task fairness
// problems) interesting in the first place.
#pragma once

#include <cstdint>

namespace merch::trace {

class HeatProfile {
 public:
  enum class Kind { kUniform, kZipf };

  static HeatProfile Uniform() { return HeatProfile(Kind::kUniform, 0.0); }
  /// exponent > 0; 0.99 is a typical hot-page skew, 1.5 is extreme.
  static HeatProfile Zipf(double exponent) {
    return HeatProfile(Kind::kZipf, exponent);
  }

  Kind kind() const { return kind_; }
  double exponent() const { return exponent_; }

  /// The denominator of an `n`-page object's Zipf fractions, H(n, s)
  /// (unused by uniform heat). A consumer that probes one object many
  /// times computes it once and passes it to the overloads below, which
  /// return exactly what the two-argument forms return. The profile keeps
  /// no cache of its own, so one profile may be read from many threads at
  /// once (prepared apps are shared across service jobs).
  double Total(std::uint64_t n) const;

  /// Fraction of accesses hitting page `i` of an `n`-page object.
  double PageFraction(std::uint64_t i, std::uint64_t n) const {
    return PageFraction(i, n, Total(n));
  }
  double PageFraction(std::uint64_t i, std::uint64_t n, double total) const;

  /// Fraction of accesses hitting the hottest `k` pages of an `n`-page
  /// object. Monotone in k; CumulativeFraction(n, n) == 1.
  double CumulativeFraction(std::uint64_t k, std::uint64_t n) const {
    return CumulativeFraction(k, n, Total(n));
  }
  double CumulativeFraction(std::uint64_t k, std::uint64_t n,
                            double total) const;

  /// Smallest k such that CumulativeFraction(k, n) >= target.
  std::uint64_t PagesForFraction(double target, std::uint64_t n) const;

 private:
  HeatProfile(Kind kind, double exponent) : kind_(kind), exponent_(exponent) {}

  /// Generalized harmonic number H(k, s) = sum_{j=1..k} j^-s, via
  /// Euler-Maclaurin so TiB-scale page counts stay O(1).
  double Harmonic(double k) const;

  Kind kind_;
  double exponent_;
};

}  // namespace merch::trace
