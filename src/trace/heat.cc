#include "trace/heat.h"

#include <cassert>
#include <cmath>

namespace merch::trace {

double HeatProfile::Harmonic(double k) const {
  // H(k, s) ~= integral + endpoint corrections (Euler-Maclaurin, two
  // correction terms). Accurate to <1e-6 relative for k >= 8; exact
  // summation below that.
  const double s = exponent_;
  if (k < 8.5) {
    double h = 0.0;
    for (int j = 1; j <= static_cast<int>(k + 0.5); ++j) {
      h += std::pow(j, -s);
    }
    return h;
  }
  double integral;
  if (std::abs(s - 1.0) < 1e-12) {
    integral = std::log(k);
  } else {
    integral = (std::pow(k, 1.0 - s) - 1.0) / (1.0 - s);
  }
  const double correction =
      0.5 * (1.0 + std::pow(k, -s)) + s / 12.0 * (1.0 - std::pow(k, -s - 1.0));
  return integral + correction;
}

double HeatProfile::Total(std::uint64_t n) const {
  return kind_ == Kind::kUniform ? static_cast<double>(n)
                                 : Harmonic(static_cast<double>(n));
}

double HeatProfile::PageFraction(std::uint64_t i, std::uint64_t n,
                                 double total) const {
  assert(n > 0 && i < n);
  if (kind_ == Kind::kUniform) return 1.0 / static_cast<double>(n);
  return std::pow(static_cast<double>(i + 1), -exponent_) / total;
}

double HeatProfile::CumulativeFraction(std::uint64_t k, std::uint64_t n,
                                       double total) const {
  assert(n > 0);
  if (k == 0) return 0.0;
  if (k >= n) return 1.0;
  if (kind_ == Kind::kUniform) {
    return static_cast<double>(k) / static_cast<double>(n);
  }
  return Harmonic(static_cast<double>(k)) / total;
}

std::uint64_t HeatProfile::PagesForFraction(double target,
                                            std::uint64_t n) const {
  assert(n > 0);
  if (target <= 0.0) return 0;
  if (target >= 1.0) return n;
  if (kind_ == Kind::kUniform) {
    return static_cast<std::uint64_t>(std::ceil(target * static_cast<double>(n)));
  }
  // Binary search the monotone CumulativeFraction; H(n) once for all
  // probes.
  const double total = Total(n);
  std::uint64_t lo = 0, hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (CumulativeFraction(mid, n, total) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace merch::trace
