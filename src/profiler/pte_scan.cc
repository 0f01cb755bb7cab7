#include "profiler/pte_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace merch::profiler {

std::vector<HotPage> PteScanProfiler::Profile(
    const trace::PageAccessSource& source) {
  const std::uint64_t total_pages = source.num_pages();
  if (total_pages == 0) return {};

  // Draw the random page sample. When restricted to PM we rejection-sample;
  // PM holds the vast majority of pages in every workload here, so the
  // retry count stays small.
  const std::size_t want = std::min<std::size_t>(config_.sample_pages,
                                                 total_pages);
  std::vector<PageId> sample;
  sample.reserve(want);
  std::size_t attempts = 0;
  const std::size_t max_attempts = want * 8 + 64;
  while (sample.size() < want && attempts < max_attempts) {
    ++attempts;
    const PageId p = rng_.NextBelow(total_pages);
    if (config_.pm_only && source.PageTier(p) != hm::Tier::kPm) continue;
    sample.push_back(p);
  }

  // Counting consumes no randomness, so one batched count of the whole
  // sample leaves the RNG stream of the loop below unchanged.
  std::vector<double> counts(sample.size());
  source.EpochAccessesBatch(sample, counts);

  const int scans = std::max(1, config_.scans_per_interval);
  std::vector<HotPage> out;
  out.reserve(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const PageId p = sample[i];
    const double true_accesses = counts[i];
    if (true_accesses <= 0) continue;
    // Per scan round, the accessed bit is set with probability
    // 1 - exp(-a/scans) (Poisson arrivals). Observe a binomial count of
    // set-bit rounds, then invert the expectation to de-saturate.
    const double p_set = 1.0 - std::exp(-true_accesses / scans);
    int observed = 0;
    for (int s = 0; s < scans; ++s) {
      if (rng_.NextBernoulli(p_set)) ++observed;
    }
    if (observed == 0) continue;
    double est;
    if (observed >= scans) {
      // Fully saturated: the profiler only knows "at least this hot".
      est = static_cast<double>(scans) * 3.0;
    } else {
      est = -static_cast<double>(scans) *
            std::log(1.0 - static_cast<double>(observed) / scans);
    }
    out.push_back(HotPage{p, est});
  }
  std::sort(out.begin(), out.end(), [](const HotPage& a, const HotPage& b) {
    return a.est_accesses > b.est_accesses;
  });
  return out;
}

std::vector<double> AggregateByObject(const std::vector<HotPage>& pages,
                                      const trace::PageAccessSource& source,
                                      std::size_t num_objects) {
  std::vector<double> out(num_objects, 0.0);
  for (const HotPage& h : pages) {
    const ObjectId obj = source.PageObject(h.page);
    if (obj != kInvalidObject && obj < num_objects) {
      out[obj] += h.est_accesses;
    }
  }
  return out;
}

std::vector<double> AggregateByTask(const std::vector<HotPage>& pages,
                                    const trace::PageAccessSource& source,
                                    std::size_t num_tasks) {
  std::vector<double> out(num_tasks, 0.0);
  for (const HotPage& h : pages) {
    const TaskId task = source.PageTask(h.page);
    if (task != kInvalidTask && task < num_tasks) {
      out[task] += h.est_accesses;
    }
  }
  return out;
}

double SaturatedEvictionHeat(const trace::PageAccessSource& source, PageId p,
                             int scans_per_interval, std::uint64_t salt) {
  const double a = source.EpochAccesses(p);
  const double scans = std::max(1, scans_per_interval);
  // Expected set-bit rounds; saturates at `scans`. Untouched pages skip
  // the exp (exp(-0) == 1 exactly, so the value is the same +0.0).
  const double observed =
      a == 0.0 ? 0.0 : scans * (1.0 - std::exp(-a / scans));
  // Deterministic per-page jitter stands in for scan-sampling noise and
  // breaks the massive ties among saturated pages.
  std::uint64_t h = (p + 1) * 0x9E3779B97F4A7C15ull ^ salt;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  const double jitter =
      static_cast<double>(h & 0xFFFF) / 65536.0;  // [0, 1)
  return observed + jitter;
}

namespace {

/// The deterministic per-page jitter of SaturatedEvictionHeat, bit for bit.
double EvictionJitter(PageId p, std::uint64_t salt) {
  std::uint64_t h = (p + 1) * 0x9E3779B97F4A7C15ull ^ salt;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return static_cast<double>(h & 0xFFFF) / 65536.0;  // [0, 1)
}

}  // namespace

void SaturatedEvictionHeatBatch(const trace::PageAccessSource& source,
                                std::span<const PageId> pages,
                                int scans_per_interval, std::uint64_t salt,
                                double obj_floor, double threshold,
                                std::span<double> out) {
  const std::size_t n = pages.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Jitter-first screen: heat(p) = observed(p) + jitter(p), and observed
  // is bounded below by the object floor, so obj_floor + jitter(p) >
  // threshold already proves heat(p) > threshold (addition is weakly
  // monotone) without touching the access counts. The hash is a handful of
  // integer ops; the count probe walks heat profiles and sweep windows.
  // Only the surviving pages pay for the count.
  std::vector<PageId> need_pages;
  std::vector<std::uint32_t> need_idx;
  need_pages.reserve(n);
  need_idx.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double jitter = EvictionJitter(pages[i], salt);
    if (obj_floor + jitter > threshold) {
      out[i] = kInf;
    } else {
      out[i] = jitter;  // stashed for the transform below
      need_pages.push_back(pages[i]);
      need_idx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<double> counts(need_pages.size());
  source.EpochAccessesBatch(need_pages, counts);
  const double scans = std::max(1, scans_per_interval);
  // Saturation is a pure function of the count, and counts within one
  // object's run are frequently identical (uniform heat spreads the static
  // total evenly), so memoize the last transform to skip repeated exps.
  double last_a = 0.0;
  double last_observed = 0.0;  // observed(0) == 0
  for (std::size_t k = 0; k < need_pages.size(); ++k) {
    const double a = counts[k];
    if (a != last_a) {
      last_a = a;
      last_observed = a == 0.0 ? 0.0 : scans * (1.0 - std::exp(-a / scans));
    }
    const std::size_t i = need_idx[k];
    out[i] = last_observed + out[i];  // out[i] held the jitter
  }
}

double SaturatedEvictionHeatFloor(double min_accesses,
                                  int scans_per_interval) {
  if (min_accesses <= 0.0) return 0.0;
  const double scans = std::max(1, scans_per_interval);
  const double observed = scans * (1.0 - std::exp(-min_accesses / scans));
  return observed * (1.0 - 1e-9);
}

}  // namespace merch::profiler
