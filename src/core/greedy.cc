#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "obs/metrics.h"

namespace merch::core {
namespace {

std::uint64_t MapToPages(double r, const GreedyTaskInput& task) {
  if (task.pages_for_access_fraction.empty()) {
    // Paper's even-distribution assumption (Algorithm 1, line 18).
    return static_cast<std::uint64_t>(
        std::ceil(r * static_cast<double>(task.footprint_pages)));
  }
  // Piecewise-linear interpolation of the density-ordered cost curve.
  const auto& curve = task.pages_for_access_fraction;
  double prev_f = 0, prev_p = 0;
  for (const auto& [f, p] : curve) {
    if (r <= f) {
      const double t = f > prev_f ? (r - prev_f) / (f - prev_f) : 1.0;
      return static_cast<std::uint64_t>(std::ceil(prev_p + t * (p - prev_p)));
    }
    prev_f = f;
    prev_p = p;
  }
  return static_cast<std::uint64_t>(std::ceil(prev_p));
}

/// Heap entry with lazy deletion: an entry is live iff its version equals
/// the task's current version. The comparator totally orders entries as a
/// strict-`>` argmax scan over tasks in index order would: larger
/// predicted time wins, equal times go to the lower index.
struct HeapEntry {
  double seconds = 0;
  std::size_t index = 0;
  std::uint64_t version = 0;
};

struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.seconds != b.seconds) return a.seconds < b.seconds;
    return a.index > b.index;
  }
};

}  // namespace

/// Per round: the longest and second-longest tasks from a lazy-deletion
/// max-heap (O(log n)), the probe recurrence r = min(1, r + step) by
/// repeated addition, the capacity claw-back against a running page
/// total, and the break conditions of Algorithm 1.
/// tests/decision_equiv_test.cc keeps the per-round full rescan as the
/// reference this must match bit for bit.
GreedyResult RunGreedyAllocation(std::span<const GreedyTaskInput> tasks,
                                 std::uint64_t dram_capacity_pages,
                                 const PerformanceModel& model,
                                 GreedyConfig config) {
  const std::size_t n = tasks.size();
  GreedyResult result;
  result.dram_fraction.assign(n, 0.0);
  result.dram_pages.assign(n, 0);
  result.predicted_seconds.resize(n);
  if (n == 0) return result;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
  std::vector<std::uint64_t> version(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    result.predicted_seconds[i] = tasks[i].t_pm_only;
    heap.push(HeapEntry{result.predicted_seconds[i], i, 0});
  }
  std::uint64_t total_pages = 0;
  std::size_t full_count = 0;  // tasks with dram_fraction >= 1 - 1e-9
  std::uint64_t heap_pops = 0;

  for (int round = 0; round < config.max_rounds; ++round) {
    result.rounds = round + 1;

    // Longest task: pop past dead entries to the live maximum.
    HeapEntry top;
    for (;;) {
      top = heap.top();
      heap.pop();
      ++heap_pops;
      if (top.version == version[top.index]) break;
    }
    const std::size_t longest = top.index;

    // Second-longest: the next live entry, clamped from below at 0.
    double second = 0;
    if (n == 1) {
      second = tasks[0].t_dram_only;  // single task: run to the bound
    } else {
      while (!heap.empty() &&
             heap.top().version != version[heap.top().index]) {
        heap.pop();
        ++heap_pops;
      }
      if (!heap.empty()) second = std::max(0.0, heap.top().seconds);
    }

    if (result.dram_fraction[longest] >= 1.0 - 1e-9) break;

    // Lines 13-16: grow the longest task's DRAM accesses in `step`
    // increments until it is predicted to dip below the second-longest.
    const GreedyTaskInput& task = tasks[longest];
    double r = result.dram_fraction[longest];
    double predicted = result.predicted_seconds[longest];
    do {
      r = std::min(1.0, r + config.step);
      predicted =
          model.PredictHybrid(task.t_pm_only, task.t_dram_only, task.pmcs, r);
    } while (predicted > second && r < 1.0 - 1e-9);

    const std::uint64_t new_pages = MapToPages(r, task);

    const std::uint64_t others = total_pages - result.dram_pages[longest];
    double fitted_r = r;
    std::uint64_t fitted_pages = new_pages;
    while (fitted_r > result.dram_fraction[longest] &&
           others + fitted_pages > dram_capacity_pages) {
      fitted_r =
          std::max(result.dram_fraction[longest], fitted_r - config.step);
      fitted_pages = MapToPages(fitted_r, task);
    }
    const bool capacity_hit = fitted_r < r - 1e-12;

    if (fitted_r <= result.dram_fraction[longest] + 1e-12 && capacity_hit) {
      break;  // no headroom at all
    }
    result.dram_fraction[longest] = fitted_r;
    total_pages -= result.dram_pages[longest];
    total_pages += fitted_pages;
    result.dram_pages[longest] = fitted_pages;
    // The commit point is the last probe unless the claw-back moved r;
    // PredictHybrid is a pure function, so reusing that value is exact.
    const double committed =
        fitted_r == r ? predicted
                      : model.PredictHybrid(task.t_pm_only, task.t_dram_only,
                                            task.pmcs, fitted_r);
    result.predicted_seconds[longest] = committed;
    if (fitted_r >= 1.0 - 1e-9) ++full_count;
    if (capacity_hit) break;

    heap.push(HeapEntry{committed, longest, ++version[longest]});
    if (full_count == n) break;
  }
  MERCH_METRIC_COUNT("merch_core_greedy_heap_pops_total", heap_pops);
  return result;
}

}  // namespace merch::core
