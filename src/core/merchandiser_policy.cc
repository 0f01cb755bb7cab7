#include "core/merchandiser_policy.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace merch::core {
namespace {

using trace::AccessPattern;

constexpr double kCurveQuartiles[] = {0.25, 0.5, 0.75, 1.0};

int Severity(AccessPattern p) {
  switch (p) {
    case AccessPattern::kStream:
      return 0;
    case AccessPattern::kStrided:
      return 1;
    case AccessPattern::kStencil:
      return 2;
    case AccessPattern::kUnknown:
      return 3;
    case AccessPattern::kRandom:
      return 4;
  }
  return 4;
}

}  // namespace

MerchandiserPolicy::MerchandiserPolicy(const CorrelationFunction* correlation,
                                       HomogeneousPredictor homogeneous,
                                       MerchandiserConfig config)
    : correlation_(correlation),
      homogeneous_(std::move(homogeneous)),
      model_(correlation_),
      config_(config),
      pte_(config.pte, config.seed),
      thermostat_({}, config.seed + 1),
      pebs_(config.pebs_period, config.seed + 2) {
  assert(correlation_ != nullptr && correlation_->trained());
}

void MerchandiserPolicy::BuildAlphaEstimators(const sim::Workload& workload) {
  if (workload.regions.empty()) return;
  const sim::Region& base = workload.regions.front();
  for (const sim::TaskProgram& tp : base.tasks) {
    for (const sim::Kernel& k : tp.kernels) {
      for (const trace::ObjectAccess& a : k.accesses) {
        const TaskObjectKey key{tp.task, a.object};
        auto it = alpha_.find(key);
        if (it == alpha_.end()) {
          alpha_.emplace(key, AlphaEstimator(a.pattern, a.element_bytes,
                                             a.stride_elements));
        } else if (Severity(a.pattern) > Severity(it->second.pattern())) {
          it->second = AlphaEstimator(a.pattern, a.element_bytes,
                                      a.stride_elements);
        }
      }
    }
  }
}

void MerchandiserPolicy::OnSimulationStart(sim::SimContext& ctx) {
  const sim::Workload& w = ctx.workload();
  BuildAlphaEstimators(w);
  base_sizes_.clear();
  if (!w.regions.empty() && !w.regions.front().active_bytes.empty()) {
    base_sizes_ = w.regions.front().active_bytes;
  } else {
    for (const sim::ObjectDecl& o : w.objects) base_sizes_.push_back(o.bytes);
  }
  object_target_pages_.assign(w.objects.size(), 0);
  quartile_pages_.assign(w.objects.size() * 4, -1.0);
  object_base_total_valid_ = false;
  candidate_memo_region_ = nullptr;
}

double MerchandiserPolicy::QuartilePages(const trace::HeatProfile& heat,
                                         std::size_t object,
                                         int quartile_index,
                                         std::uint64_t npages) {
  const double q = kCurveQuartiles[quartile_index];
  double& slot = quartile_pages_[object * 4 + quartile_index];
  if (slot < 0) slot = static_cast<double>(heat.PagesForFraction(q, npages));
  return slot;
}

void MerchandiserPolicy::OnInterval(sim::SimContext& ctx) {
  MERCH_TRACE_SPAN(obs::Category::kCore, "core.interval");
  sim::AccessOracle& oracle = ctx.oracle();
  const sim::Workload& w = ctx.workload();
  const std::size_t region = ctx.region_index();

  // Base-input object profiling: PEBS-attributed per-(task, object) counts
  // accumulated over the base instance (Section 4, "Estimation of memory
  // access count": measure at data-object level during the first
  // execution).
  if (region == 0 && !base_collected_) {
    for (const auto& [key, est] : alpha_) {
      const double truth =
          oracle.TaskObjectEpochAccesses(key.object, key.task);
      if (truth > 0) base_accesses_[key] += pebs_.Estimate(truth);
    }
  }

  // Hot-page detection via the PTE-scan sampler, then migration. During the
  // base instance this is plain MemoryOptimizer behaviour; afterwards each
  // migration is checked against the owning task's quota (Section 6).
  const auto hot = pte_.Profile(oracle);
  const int scans = config_.pte.scans_per_interval;
  const std::uint64_t salt = ++interval_counter_;
  auto heat_fn = [&oracle, scans, salt](PageId p) {
    return profiler::SaturatedEvictionHeat(oracle, p, scans, salt);
  };
  auto floor_fn = [&oracle, scans](PageId first_page) {
    return profiler::SaturatedEvictionHeatFloor(
        oracle.EpochAccessesFloor(first_page), scans);
  };
  auto batch_fn = [&oracle, scans, salt](std::span<const PageId> pages,
                                         double obj_floor, double threshold,
                                         std::span<double> out) {
    profiler::SaturatedEvictionHeatBatch(oracle, pages, scans, salt,
                                         obj_floor, threshold, out);
  };
  std::size_t migrated = 0;
  std::vector<PageId> batch;
  for (const profiler::HotPage& h : hot) {
    if (migrated >= config_.interval_migration_pages) break;
    if (oracle.PageTier(h.page) != hm::Tier::kPm) continue;
    if (region > 0) {
      const TaskId task = oracle.PageTask(h.page);
      if (task != kInvalidTask) {
        const auto quota = quota_pages_.find(task);
        const std::uint64_t allowed =
            quota == quota_pages_.end() ? 0 : quota->second;
        if (used_pages_[task] >= allowed) continue;  // quota reached: skip
        ++used_pages_[task];
      } else {
        // Shared page: allowed while any accessing task has headroom.
        std::uint64_t total_quota = 0, total_used = 0;
        for (const auto& [t, q] : quota_pages_) {
          total_quota += q;
          total_used += used_pages_[t];
        }
        if (total_used >= total_quota) continue;
      }
    }
    batch.push_back(h.page);
    ++migrated;
  }
  if (!batch.empty()) {
    ctx.migration().MakeRoomInDram(batch.size(), heat_fn, floor_fn, batch_fn);
    ctx.migration().MigratePages(batch, hm::Tier::kDram);
  }
  (void)w;
}

const std::vector<double>& MerchandiserPolicy::ObjectBaseTotals(
    const sim::Workload& w) {
  if (!object_base_total_valid_) {
    object_base_total_.assign(w.objects.size(), 0.0);
    for (const auto& [key, acc] : base_accesses_) {
      object_base_total_[key.object] += acc;
    }
    object_base_total_valid_ = true;
  }
  return object_base_total_;
}

std::vector<MerchandiserPolicy::PlacementCandidate>
MerchandiserPolicy::BuildCandidates(sim::SimContext& ctx,
                                    const sim::Region& region, TaskId task,
                                    double* total_est) {
  // The decision and ApplyPlacement both need this task's candidates for
  // the same (region, alpha) state — memoize the first build. The memo is
  // cleared whenever the region or the alpha version moves on.
  if (candidate_memo_region_ == &region &&
      candidate_memo_alpha_version_ == alpha_version_) {
    const auto it = candidate_memo_.find(task);
    if (it != candidate_memo_.end()) {
      if (total_est != nullptr) *total_est = it->second.total_est;
      return it->second.cands;
    }
  } else {
    candidate_memo_.clear();
    candidate_memo_region_ = &region;
    candidate_memo_alpha_version_ = alpha_version_;
  }
  MERCH_TRACE_SPAN(obs::Category::kCore, "core.estimate_accesses");
  const sim::Workload& w = ctx.workload();
  // Per-access DRAM benefit weight per (task, object): the knapsack item
  // *value* is the performance gained by serving the access from DRAM
  // (paper Section 6), which is larger for latency-bound random accesses
  // and for writes (PM's asymmetric write path) than for prefetched
  // sequential reads. Derived from the static classification + read/write
  // mix of the task's kernels.
  std::map<std::size_t, double> benefit;
  {
    const hm::TierSpec& pm_spec = ctx.machine().hm[hm::Tier::kPm];
    const hm::TierSpec& dram_spec = ctx.machine().hm[hm::Tier::kDram];
    for (const sim::TaskProgram& tp : w.regions.front().tasks) {
      if (tp.task != task) continue;
      std::map<std::size_t, std::pair<double, double>> acc;  // (weight, n)
      for (const sim::Kernel& k : tp.kernels) {
        for (const trace::ObjectAccess& a : k.accesses) {
          const trace::PatternTraits& traits = trace::TraitsOf(a.pattern);
          auto lat = [&](const hm::TierSpec& spec) {
            const double base = traits.sequential_latency ? spec.seq_latency_ns
                                                          : spec.rand_latency_ns;
            return base *
                   (a.read_fraction +
                    (1.0 - a.read_fraction) * spec.write_latency_factor) /
                   traits.mlp;
          };
          const double gain = lat(pm_spec) - lat(dram_spec);
          const auto n = static_cast<double>(a.program_accesses);
          acc[a.object].first += gain * n;
          acc[a.object].second += n;
        }
      }
      for (const auto& [obj, wn] : acc) {
        if (wn.second > 0) benefit[obj] = wn.first / wn.second;
      }
    }
  }
  // Per-object base-access totals, for shared-object cost shares.
  const std::vector<double>& object_base_total = ObjectBaseTotals(w);
  std::vector<PlacementCandidate> cands;
  double total = 0;
  for (std::size_t obj = 0; obj < w.objects.size(); ++obj) {
    const auto it = alpha_.find(TaskObjectKey{task, obj});
    const auto base_it = base_accesses_.find(TaskObjectKey{task, obj});
    if (it == alpha_.end() || base_it == base_accesses_.end()) continue;
    if (!it->second.has_base()) {
      it->second.SetBase(static_cast<double>(base_sizes_[obj]),
                         base_it->second);
    }
    const auto& extent = ctx.pages().extent(ctx.oracle().handle(obj));
    if (extent.num_pages == 0) continue;
    const double size = static_cast<double>(
        region.active_bytes.empty() ? base_sizes_[obj]
                                    : region.active_bytes[obj]);
    const double est = it->second.EstimateAccesses(size);
    if (est <= 0) continue;
    total += est;
    const double share = w.objects[obj].owner == task
                             ? 1.0
                             : (object_base_total[obj] > 0
                                    ? base_it->second / object_base_total[obj]
                                    : 1.0);
    const auto bit = benefit.find(obj);
    cands.push_back(PlacementCandidate{
        obj, est, static_cast<double>(extent.num_pages),
        share * static_cast<double>(extent.num_pages),
        bit != benefit.end() ? bit->second : 1.0});
  }
  // Budget is spent by access density (estimated accesses per page). The
  // per-access benefit weight is recorded on each candidate for
  // diagnostics; weighting the ranking by it was evaluated and found to
  // underperform plain density under bandwidth contention (the gain
  // estimate ignores that serving one stream barely moves a saturated
  // tier's queueing factor).
  std::sort(cands.begin(), cands.end(),
            [](const PlacementCandidate& a, const PlacementCandidate& b) {
              return a.est_accesses / a.pages > b.est_accesses / b.pages;
            });
  candidate_memo_[task] = CandidateMemo{cands, total};
  if (total_est != nullptr) *total_est = total;
  return cands;
}

void MerchandiserPolicy::OnRegionStart(sim::SimContext& ctx,
                                       std::size_t region) {
  if (region == 0) return;  // base instance: profile-only
  MERCH_TRACE_SPAN_VAR(decision_span, obs::Category::kCore,
                       "core.instance_decision");
  decision_span.set_arg("region", static_cast<std::int64_t>(region));
  const auto decision_start = std::chrono::steady_clock::now();
  const sim::Workload& w = ctx.workload();
  const sim::Region& reg = w.regions[region];
  const std::vector<std::uint64_t>& new_sizes =
      reg.active_bytes.empty() ? base_sizes_ : reg.active_bytes;

  // Per-task inputs for Algorithm 1.
  std::vector<GreedyTaskInput> inputs;
  std::vector<TaskId> task_order;
  InstanceDecision decision;
  decision.region = region;
  for (const sim::TaskProgram& tp : reg.tasks) {
    GreedyTaskInput in;
    in.task = tp.task;
    double total_acc = 0;
    const auto cands = BuildCandidates(ctx, reg, tp.task, &total_acc);
    in.total_accesses = total_acc;
    double footprint_pages = 0;
    for (const PlacementCandidate& c : cands) footprint_pages += c.pages_cost;
    in.footprint_pages =
        static_cast<std::uint64_t>(std::ceil(footprint_pages));
    // Page-cost curve: cumulative (access fraction, pages) walking the
    // density-ordered candidates, with intra-object quartiles capturing
    // hottest-page-first placement inside skewed objects.
    if (total_acc > 0) {
      double cum_acc = 0, cum_pages = 0;
      for (const PlacementCandidate& c : cands) {
        const trace::HeatProfile& heat = w.objects[c.object].heat;
        const auto npages = static_cast<std::uint64_t>(c.pages);
        const double cost_ratio = c.pages > 0 ? c.pages_cost / c.pages : 1.0;
        for (int qi = 0; qi < 4; ++qi) {
          const double pages_q = QuartilePages(
              heat, c.object, qi, std::max<std::uint64_t>(1, npages));
          in.pages_for_access_fraction.emplace_back(
              (cum_acc + kCurveQuartiles[qi] * c.est_accesses) / total_acc,
              cum_pages + pages_q * cost_ratio);
        }
        cum_acc += c.est_accesses;
        cum_pages += c.pages_cost;
      }
    }
    in.t_pm_only = homogeneous_.Predict(tp.task, hm::Tier::kPm, new_sizes);
    in.t_dram_only = homogeneous_.Predict(tp.task, hm::Tier::kDram, new_sizes);
    // Workload characteristics: PMCs from the most recent completed
    // instance of this task (walk the history backwards and stop at the
    // first match — same stats the old full forward scan kept last).
    const auto& hist = ctx.history();
    [&] {
      for (auto rit = hist.rbegin(); rit != hist.rend(); ++rit) {
        for (auto tit = rit->tasks.rbegin(); tit != rit->tasks.rend();
             ++tit) {
          if (tit->task == tp.task) {
            in.pmcs = tit->pmcs;
            return;
          }
        }
      }
    }();
    decision.tasks.push_back(tp.task);
    decision.t_pm_only.push_back(in.t_pm_only);
    decision.t_dram_only.push_back(in.t_dram_only);
    decision.estimated_accesses.push_back(in.total_accesses);
    task_order.push_back(tp.task);
    inputs.push_back(in);
  }

  const std::uint64_t dram_pages =
      ctx.pages().spec().dram_capacity() / ctx.pages().page_bytes();
  GreedyResult greedy;
  {
    MERCH_TRACE_SPAN_VAR(greedy_span, obs::Category::kCore, "core.greedy");
    greedy = RunGreedyAllocation(inputs, dram_pages, model_, config_.greedy);
    greedy_span.set_arg("rounds", static_cast<std::int64_t>(greedy.rounds));
  }
  MERCH_METRIC_COUNT("merch_core_decisions_total", 1);
  MERCH_METRIC_COUNT("merch_core_greedy_rounds_total",
                     static_cast<std::uint64_t>(greedy.rounds));

  decision.dram_fraction = greedy.dram_fraction;
  decision.predicted_seconds = greedy.predicted_seconds;
  decision.greedy_rounds = greedy.rounds;
  decision.greedy_inputs = inputs;
  decision.dram_capacity_pages = dram_pages;
  decision.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    decision_start)
          .count();
  decisions_.push_back(decision);

  quota_pages_.clear();
  used_pages_.clear();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    quota_pages_[inputs[i].task] = greedy.dram_pages[i];
  }
  // Quota accounting starts from what each task already holds on DRAM.
  for (const sim::TaskProgram& tp : reg.tasks) {
    std::uint64_t used = 0;
    for (std::size_t obj = 0; obj < w.objects.size(); ++obj) {
      if (w.objects[obj].owner == tp.task) {
        used += ctx.pages().object_pages_on(ctx.oracle().handle(obj),
                                            hm::Tier::kDram);
      }
    }
    used_pages_[tp.task] = used;
  }

  if (config_.proactive_placement) {
    ApplyPlacement(ctx, reg, greedy, task_order);
  }
}

void MerchandiserPolicy::ApplyPlacement(sim::SimContext& ctx,
                                        const sim::Region& region,
                                        const GreedyResult& greedy,
                                        const std::vector<TaskId>& task_order) {
  const sim::Workload& w = ctx.workload();
  const std::uint64_t dram_pages =
      ctx.pages().spec().dram_capacity() / ctx.pages().page_bytes();

  // Spend each task's page budget on its densest objects first (estimated
  // accesses per page, from Eq. 1). This is what quota-capped hot-page
  // migration converges to, decided up front: the profiler promotes the
  // hottest sampled pages and the quota stops it, so dense objects win.
  // Tasks are served in predicted-longest-first order so the critical task
  // claims contended shared objects.
  std::vector<std::size_t> order(task_order.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return greedy.predicted_seconds[a] > greedy.predicted_seconds[b];
  });

  std::vector<double> raw_target(w.objects.size(), 0.0);
  for (const std::size_t ti : order) {
    const TaskId task = task_order[ti];
    double total_est = 0;
    const auto cands = BuildCandidates(ctx, region, task, &total_est);
    // Serve this task's granted DRAM-access share r_i by walking its
    // objects densest-first until the *estimated access mass* placed on
    // DRAM reaches r_i * total; within an object, hottest pages first
    // (heat-aware page count). This delivers the benefit Algorithm 1's
    // model assumed while spending the page budget its curve predicted.
    double access_budget = greedy.dram_fraction[ti] * total_est;
    for (const PlacementCandidate& c : cands) {
      if (access_budget <= 0) break;
      const double need = std::min(access_budget, c.est_accesses);
      const double q = need / std::max(1.0, c.est_accesses);
      const trace::HeatProfile& heat = w.objects[c.object].heat;
      const auto npages = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(c.pages));
      const double pages =
          static_cast<double>(heat.PagesForFraction(q, npages));
      raw_target[c.object] = std::max(raw_target[c.object], pages);
      access_budget -= need;
    }
  }
  double total_target = 0;
  for (const double t : raw_target) total_target += t;

  // Capacity clamp (leave 2% headroom for interval migrations).
  const double cap = 0.98 * static_cast<double>(dram_pages);
  const double scale = total_target > cap ? cap / total_target : 1.0;
  for (std::size_t obj = 0; obj < w.objects.size(); ++obj) {
    object_target_pages_[obj] =
        static_cast<std::uint64_t>(raw_target[obj] * scale);
  }

  // Demote excess first (frees DRAM), then promote deficits. A 20%
  // hysteresis band on both sides avoids re-migrating near-identical
  // placements between consecutive instances (migration bandwidth is the
  // scarce resource this policy competes with the application for).
  for (std::size_t obj = 0; obj < w.objects.size(); ++obj) {
    const ObjectId handle = ctx.oracle().handle(obj);
    const std::uint64_t cur =
        ctx.pages().object_pages_on(handle, hm::Tier::kDram);
    const std::uint64_t target = object_target_pages_[obj];
    const std::uint64_t slack = ctx.pages().extent(handle).num_pages / 5;
    if (cur > target + slack) {
      ctx.migration().DemoteColdest(handle, cur - target);
    }
  }
  for (std::size_t obj = 0; obj < w.objects.size(); ++obj) {
    const ObjectId handle = ctx.oracle().handle(obj);
    const std::uint64_t cur =
        ctx.pages().object_pages_on(handle, hm::Tier::kDram);
    const std::uint64_t target = object_target_pages_[obj];
    const std::uint64_t slack = ctx.pages().extent(handle).num_pages / 5;
    if (cur + slack < target) {
      ctx.migration().MigrateHottest(handle, target - cur, hm::Tier::kDram);
    }
  }

  // Seed quota usage with the bulk placement.
  for (const auto& [task, quota] : quota_pages_) {
    (void)quota;
    std::uint64_t used = 0;
    for (std::size_t obj = 0; obj < w.objects.size(); ++obj) {
      if (w.objects[obj].owner == task) {
        used += ctx.pages().object_pages_on(ctx.oracle().handle(obj),
                                            hm::Tier::kDram);
      }
    }
    used_pages_[task] = used;
  }
  (void)region;
}

void MerchandiserPolicy::OnRegionEnd(sim::SimContext& ctx,
                                     std::size_t region) {
  const sim::Workload& w = ctx.workload();
  if (region == 0) {
    base_collected_ = true;
    // Bind base sizes/counts into the estimators.
    for (auto& [key, est] : alpha_) {
      const auto it = base_accesses_.find(key);
      if (it != base_accesses_.end() && !est.has_base()) {
        est.SetBase(static_cast<double>(base_sizes_[key.object]), it->second);
      }
    }
    ++alpha_version_;
    return;
  }
  // Runtime alpha refinement from PEBS measurements of this instance
  // (input-dependent stencil / random / unknown patterns).
  const sim::RegionStats& stats = ctx.history().back();
  const std::vector<std::uint64_t>& sizes =
      w.regions[region].active_bytes.empty() ? base_sizes_
                                             : w.regions[region].active_bytes;
  bool refined = false;
  for (const sim::TaskStats& ts : stats.tasks) {
    for (std::size_t obj = 0; obj < ts.object_mm_accesses.size(); ++obj) {
      const auto it = alpha_.find(TaskObjectKey{ts.task, obj});
      if (it == alpha_.end() || !it->second.refines_at_runtime()) continue;
      const double measured = pebs_.Estimate(ts.object_mm_accesses[obj]);
      it->second.Refine(static_cast<double>(sizes[obj]), measured);
      refined = true;
    }
  }
  // Refinement changes Eq. 1 estimates — invalidate everything derived
  // from them.
  if (refined) ++alpha_version_;
}

double MerchandiserPolicy::AverageAlpha() const {
  double sum = 0;
  std::size_t count = 0;
  for (const auto& [key, est] : alpha_) {
    sum += est.alpha();
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 1.0;
}

}  // namespace merch::core
