#include "core/greedy.h"

#include <algorithm>
#include <bit>
#include <cassert>
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

/// Per-task evaluation state: the correlation function specialized on the
/// task's PMCs (CorrelationProfile — tree ensembles collapse to a
/// piecewise-constant function of r, so each probe costs a binary search
/// plus at most one lazy interval fill). Predict replicates PredictHybrid
/// operation for operation — same clamp, same r >= 1 shortcut, shared
/// Combine — so it is bitwise equal to a scalar PredictHybrid call. A
/// profile without a specialization (a feature row seen for the first
/// time, or a model that cannot specialize) falls back to scalar
/// PredictHybrid behind an exact-bits r -> prediction memo, which cannot
/// change results — the same r always maps to the same double.
class TaskEvaluator {
 public:
  TaskEvaluator(const GreedyTaskInput& task, const PerformanceModel& model)
      : task_(&task), model_(&model),
        profile_(model.correlation().MakeProfile(task.pmcs)) {
    if (!profile_.specialized()) memo_.reserve(64);
  }

  double Predict(double r) {
    if (profile_.specialized()) {
      const double rc = std::clamp(r, 0.0, 1.0);
      if (rc >= 1.0) return task_->t_dram_only;
      return PerformanceModel::Combine(task_->t_pm_only, task_->t_dram_only,
                                       rc, profile_.Evaluate(rc));
    }
    const std::uint64_t key = std::bit_cast<std::uint64_t>(r);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const double v = model_->PredictHybrid(task_->t_pm_only,
                                           task_->t_dram_only, task_->pmcs, r);
    memo_.emplace(key, v);
    return v;
  }

 private:
  const GreedyTaskInput* task_;
  const PerformanceModel* model_;
  CorrelationProfile profile_;
  std::unordered_map<std::uint64_t, double> memo_;  // fallback path only
};

}  // namespace

/// Per round: the longest and second-longest tasks from a lazy-deletion
/// max-heap (O(log n)), the probe recurrence r = min(1, r + step) by
/// repeated addition (so later rounds' probes bitwise extend earlier
/// ones), the capacity claw-back against a running page total, and the
/// break conditions of Algorithm 1. tests/decision_equiv_test.cc keeps the
/// per-round full rescan as the reference this must match bit for bit.
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

  // Evaluators are built lazily — a task that never becomes the longest
  // never pays for its feature prefix or memo.
  std::vector<std::unique_ptr<TaskEvaluator>> evals(n);
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
    // Each probe is a specialized-profile lookup instead of a full model
    // evaluation.
    double r = result.dram_fraction[longest];
    double predicted = result.predicted_seconds[longest];
    if (!evals[longest]) {
      evals[longest] =
          std::make_unique<TaskEvaluator>(tasks[longest], model);
    }
    TaskEvaluator& ev = *evals[longest];
    do {
      r = std::min(1.0, r + config.step);
      predicted = ev.Predict(r);
    } while (predicted > second && r < 1.0 - 1e-9);
    (void)predicted;

    const std::uint64_t new_pages = MapToPages(r, tasks[longest]);

    const std::uint64_t others = total_pages - result.dram_pages[longest];
    double fitted_r = r;
    std::uint64_t fitted_pages = new_pages;
    while (fitted_r > result.dram_fraction[longest] &&
           others + fitted_pages > dram_capacity_pages) {
      fitted_r =
          std::max(result.dram_fraction[longest], fitted_r - config.step);
      fitted_pages = MapToPages(fitted_r, tasks[longest]);
    }
    const bool capacity_hit = fitted_r < r - 1e-12;

    if (fitted_r <= result.dram_fraction[longest] + 1e-12 && capacity_hit) {
      break;  // no headroom at all
    }
    result.dram_fraction[longest] = fitted_r;
    total_pages -= result.dram_pages[longest];
    total_pages += fitted_pages;
    result.dram_pages[longest] = fitted_pages;
    // Commit re-evaluation hits the profile's interval cache when the
    // commit point is the last probe (the common case).
    const double committed = ev.Predict(fitted_r);
    result.predicted_seconds[longest] = committed;
    if (fitted_r >= 1.0 - 1e-9) ++full_count;
    if (capacity_hit) break;

    heap.push(HeapEntry{committed, longest, ++version[longest]});
    if (full_count == n) break;
  }
  MERCH_METRIC_COUNT("merch_core_greedy_heap_pops_total", heap_pops);
  return result;
}

// ---------------------------------------------------- GreedyResultCache

namespace {

void AppendU64(std::string* s, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    s->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
}

void AppendDouble(std::string* s, double d) {
  AppendU64(s, std::bit_cast<std::uint64_t>(d));
}

}  // namespace

std::string GreedyResultCache::Fingerprint(
    std::span<const GreedyTaskInput> tasks, std::uint64_t dram_capacity_pages,
    const PerformanceModel& model, const GreedyConfig& config) {
  std::string key;
  key.reserve(64 + tasks.size() * 128);
  // Model identity: the correlation function object the predictions come
  // from (owners keep trained systems alive for the cache's lifetime).
  AppendU64(&key,
            static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(&model.correlation())));
  AppendU64(&key, dram_capacity_pages);
  AppendDouble(&key, config.step);
  AppendU64(&key, static_cast<std::uint64_t>(config.max_rounds));
  AppendU64(&key, tasks.size());
  for (const GreedyTaskInput& t : tasks) {
    AppendU64(&key, static_cast<std::uint64_t>(t.task));
    AppendDouble(&key, t.t_pm_only);
    AppendDouble(&key, t.t_dram_only);
    AppendDouble(&key, t.total_accesses);
    AppendU64(&key, t.footprint_pages);
    for (const double e : t.pmcs) AppendDouble(&key, e);
    AppendU64(&key, t.pages_for_access_fraction.size());
    for (const auto& [f, p] : t.pages_for_access_fraction) {
      AppendDouble(&key, f);
      AppendDouble(&key, p);
    }
  }
  return key;
}

std::shared_ptr<const GreedyResult> GreedyResultCache::Find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void GreedyResultCache::Insert(const std::string& key, GreedyResult result) {
  auto value = std::make_shared<const GreedyResult>(std::move(result));
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(key, std::move(value));
}

std::uint64_t GreedyResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t GreedyResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace merch::core
