// Unit tests for src/common: RNG, statistics, tables, byte formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace merch {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(n), n);
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(11);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(19);
  const auto perm = rng.Permutation(257);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto sample = rng.SampleWithoutReplacement(100, 40);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 40u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleWithoutReplacementLargeDomain) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(std::size_t(1) << 22, 64);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0;
  for (std::size_t k = 0; k < 100; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsHottest) {
  ZipfSampler zipf(50, 0.8);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(49));
}

TEST(Zipf, SampleFrequencyMatchesPmf) {
  ZipfSampler zipf(10, 1.2);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.Pmf(k), 0.02)
        << "rank " << k;
  }
}

// The binary search the guide table replaced, kept here as the reference:
// the smallest k with cdf[k] >= u, clamped to n - 1.
std::size_t ReferenceRank(const std::vector<double>& cdf, double u) {
  const auto k = static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(k, cdf.size() - 1);
}

const std::size_t kZipfSizes[] = {1, 2, 3, 10, 50, 100, 4096, 32768, 65536};
// Exponent 8 leaves a tail of ranks whose CDF rounds to exactly 1.0.
const double kZipfExponents[] = {0.5, 0.85, 0.9, 1, 1.2, 2.5, 8};

// One case per size, so a parallel ctest spreads them: the probes at CDF
// values just below 1 are the sampler's longest scans (exponent 2.5 packs
// tens of thousands of ranks into the last bucket at n = 65536).
class ZipfGuide : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZipfGuide, RankEqualsBinarySearchAtEveryBoundary) {
  const std::size_t n = GetParam();
  for (const double s : kZipfExponents) {
    const ZipfSampler zipf(n, s);
    const std::vector<double>& cdf = zipf.cdf();
    // u = 0, every bucket boundary j/m and the double just below it, every
    // CDF value and its two neighbours, and the largest draw.
    std::vector<double> us = {0.0, 1.0 - 0x1.0p-53};
    const std::size_t m = std::bit_ceil(n);
    for (std::size_t j = 0; j <= m; ++j) {
      const double bound = static_cast<double>(j) / static_cast<double>(m);
      us.push_back(bound);
      us.push_back(std::nextafter(bound, 0.0));
    }
    for (const double c : cdf) {
      for (const double u :
           {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
        if (u <= 1.0) us.push_back(u);
      }
    }
    std::size_t mismatches = 0;
    double first = -1;
    for (const double u : us) {
      if (zipf.Rank(u) != ReferenceRank(cdf, u) && mismatches++ == 0) {
        first = u;
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << "exponent " << s << ": first at u = " << first << ", Rank "
        << zipf.Rank(first) << ", binary search " << ReferenceRank(cdf, first);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfGuide, ::testing::ValuesIn(kZipfSizes),
                         ::testing::PrintToStringParamName());

TEST(Zipf, SampleStreamEqualsBinarySearch) {
  // A million draws at each Kron builder shape (SpGEMM, BFS), and a
  // shorter stream at every tested (n, exponent).
  auto compare = [](std::size_t n, double s, int draws) {
    const ZipfSampler zipf(n, s);
    Rng sampled(n * 31 + 7), reference(n * 31 + 7);
    int mismatches = 0;
    for (int i = 0; i < draws; ++i) {
      if (zipf.Sample(sampled) !=
          ReferenceRank(zipf.cdf(), reference.NextDouble())) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "n " << n << ", exponent " << s;
  };
  compare(32768, 0.85, 1000000);
  compare(65536, 0.9, 1000000);
  for (const std::size_t n : kZipfSizes) {
    for (const double s : kZipfExponents) compare(n, s, 20000);
  }
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), std::sqrt(2.0));
}

TEST(Stats, EmptyInputsSafe) {
  const std::vector<double> empty;
  EXPECT_EQ(Mean(empty), 0.0);
  EXPECT_EQ(Variance(empty), 0.0);
  EXPECT_EQ(CoefficientOfVariation(empty), 0.0);
}

TEST(Stats, CoefficientOfVariation) {
  const std::vector<double> same = {4, 4, 4, 4};
  EXPECT_DOUBLE_EQ(CoefficientOfVariation(same), 0.0);
  const std::vector<double> spread = {2, 4, 6};
  EXPECT_NEAR(CoefficientOfVariation(spread), StdDev(spread) / 4.0, 1e-12);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
}

TEST(Stats, BoxStatsQuartiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const BoxStats b = ComputeBoxStats(xs);
  EXPECT_NEAR(b.median, 50.5, 0.01);
  EXPECT_NEAR(b.q1, 25.75, 0.01);
  EXPECT_NEAR(b.q3, 75.25, 0.01);
  EXPECT_EQ(b.outliers, 0u);
}

TEST(Stats, BoxStatsDetectsOutliers) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 1000};
  const BoxStats b = ComputeBoxStats(xs);
  EXPECT_EQ(b.outliers, 1u);
  EXPECT_LT(b.max, 1000.0);
}

TEST(Stats, CosineSimilarity) {
  const std::vector<double> a = {1, 0}, b = {0, 1}, c = {2, 0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-12);
  const std::vector<double> zero = {0, 0};
  EXPECT_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(Stats, RSquaredPerfectAndMeanBaseline) {
  const std::vector<double> truth = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RSquared(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(RSquared(truth, mean_pred), 0.0, 1e-12);
}

TEST(Stats, MapeAccuracy) {
  const std::vector<double> truth = {100, 200};
  const std::vector<double> pred = {90, 220};  // 10% errors
  EXPECT_NEAR(MapeAccuracy(truth, pred), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(MapeAccuracy(truth, truth), 1.0);
}

TEST(Stats, MeanSquaredError) {
  const std::vector<double> truth = {0, 0}, pred = {3, 4};
  EXPECT_DOUBLE_EQ(MeanSquaredError(truth, pred), 12.5);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Pct(0.171), "17.1%");
}

TEST(Types, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536ull * GiB), "1.5 TiB");
}

TEST(Types, PageAndLineMath) {
  EXPECT_EQ(PagesForBytes(1), 1u);
  EXPECT_EQ(PagesForBytes(kPageBytes), 1u);
  EXPECT_EQ(PagesForBytes(kPageBytes + 1), 2u);
  EXPECT_EQ(LinesForBytes(64), 1u);
  EXPECT_EQ(LinesForBytes(65), 2u);
}

}  // namespace
}  // namespace merch
