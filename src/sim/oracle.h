// Analytic access oracle: per-interval, per-object access accounting.
//
// Tracking per-4KiB-page counters for TiB-scale address spaces is
// infeasible, so the engine records object-level main-memory access totals
// and the oracle materialises per-page counts on demand through each
// object's heat profile. Profilers consume it through the PageAccessSource
// interface, exactly as they would consume real PTE accessed bits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "hm/page_table.h"
#include "sim/workload.h"
#include "trace/access_source.h"

namespace merch::sim {

class AccessOracle final : public trace::PageAccessSource {
 public:
  AccessOracle(const Workload& workload, const hm::PageTable& pages,
               std::vector<ObjectId> object_handles);

  /// Record `mm_accesses` main-memory accesses by `task` to workload object
  /// index `object` during the current interval, distributed over pages by
  /// the object's static heat profile (random-pattern accesses).
  void Add(std::size_t object, TaskId task, double mm_accesses);

  /// Record a *sweep* slice: `mm_accesses` accesses landing uniformly on
  /// the page-rank window [f0, f1) of the object (sequential patterns
  /// touch pages in rank order as the kernel progresses). Adjacent slices
  /// from consecutive epochs merge.
  void AddSweep(std::size_t object, TaskId task, double f0, double f1,
                double mm_accesses);

  /// Zero the interval counters (called at interval boundaries after
  /// policies have consumed them).
  void ResetEpoch();

  /// Interval totals.
  double ObjectEpochAccesses(std::size_t object) const;
  double TaskEpochAccesses(TaskId task) const;
  double TotalEpochAccesses() const;
  /// Accesses by `task` to `object` this interval.
  double TaskObjectEpochAccesses(std::size_t object, TaskId task) const;

  /// Lifetime totals (whole simulation so far).
  double ObjectLifetimeAccesses(std::size_t object) const;

  /// Exact lower bound of EpochAccesses over *every* page of the object
  /// containing `p`: the static-heat term at the object's coldest page
  /// rank (sweep windows only ever add). FP rounding is monotone, so the
  /// bound holds bitwise, not just mathematically. Eviction gathers use
  /// it to skip whole hot objects without changing which pages they pick.
  double EpochAccessesFloor(PageId p) const;

  // --- trace::PageAccessSource ---
  std::uint64_t num_pages() const override;
  double EpochAccesses(PageId p) const override;
  /// Batch for random samples (the PTE-scan profiler) and ascending
  /// same-object runs (eviction gathers): each run starts with a direct
  /// owner lookup, a page of an idle object reads 0 before any extent or
  /// heat math, and consecutive pages from one extent share hoisted
  /// static/window state. Bitwise equal to per-page EpochAccesses.
  void EpochAccessesBatch(std::span<const PageId> pages,
                          std::span<double> out) const override;
  hm::Tier PageTier(PageId p) const override;
  ObjectId PageObject(PageId p) const override;
  TaskId PageTask(PageId p) const override;

  /// PageTable object id for workload object index `i`.
  ObjectId handle(std::size_t i) const { return handles_[i]; }

 private:
  struct SweepWindow {
    double f0 = 0, f1 = 0;  // page-rank fractions
    double accesses = 0;
  };

  /// Workload object index owning page `p`, or SIZE_MAX. Keeps a
  /// one-entry memo of the last located object: scalar page probes arrive
  /// in runs within one extent (eviction gathers), so most calls skip the
  /// page table's owner lookup. Not thread-safe — every caller (profilers,
  /// policies, the engine's advance loop) runs on the simulation thread.
  std::size_t LocateObject(PageId p) const;
  /// LocateObject without the memo: the page table's owner record mapped
  /// to the workload object index (policies may register extra scratch
  /// objects the oracle does not track).
  std::size_t OwnerIndex(PageId p) const;

  const Workload* workload_;
  const hm::PageTable* pages_;
  std::vector<ObjectId> handles_;         // workload index -> PageTable id
  std::vector<std::size_t> index_of_handle_;  // PageTable id -> workload index
  mutable std::size_t last_located_ = SIZE_MAX;  // LocateObject memo
  /// HeatProfile::Total of each object's page count, computed at
  /// construction (extents never change): per-page probes skip the
  /// pow/log chain, and the workload's profiles stay read-only.
  std::vector<double> heat_total_;
  std::vector<double> epoch_by_object_;   // static-heat portion
  std::vector<std::vector<SweepWindow>> sweeps_by_object_;
  std::vector<double> lifetime_by_object_;
  // Flattened (object, task) interval counters: tasks are dense small ids.
  std::vector<std::vector<double>> epoch_by_object_task_;
  std::size_t max_task_ = 0;
};

}  // namespace merch::sim
