// Migration engine: the mechanical layer policies use to move pages.
//
// It wraps PageTable moves with traffic accounting (migration consumes
// bandwidth on both tiers — visible in the Figure 6 reproduction) and a
// make-room path that evicts cold DRAM pages to PM, mirroring the paper's
// "DRAM space management" (Section 6): when DRAM has no space, the least
// frequently accessed DRAM pages move to PM.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hm/page_table.h"

namespace merch::hm {

struct MigrationStats {
  std::uint64_t pages_to_dram = 0;
  std::uint64_t pages_to_pm = 0;
  std::uint64_t bytes_to_dram = 0;
  std::uint64_t bytes_to_pm = 0;
  std::uint64_t failed_capacity = 0;  // moves rejected: destination full

  MigrationStats& operator+=(const MigrationStats& o) {
    pages_to_dram += o.pages_to_dram;
    pages_to_pm += o.pages_to_pm;
    bytes_to_dram += o.bytes_to_dram;
    bytes_to_pm += o.bytes_to_pm;
    failed_capacity += o.failed_capacity;
    return *this;
  }
};

class MigrationEngine {
 public:
  explicit MigrationEngine(PageTable& table) : table_(&table) {}

  /// Move `k` hottest not-yet-resident pages of `obj` to `to`.
  /// Returns pages moved.
  std::uint64_t MigrateHottest(ObjectId obj, std::uint64_t k, Tier to);

  /// Move individual pages (sampling-based policies decide page ids).
  std::uint64_t MigratePages(std::span<const PageId> pages, Tier to);

  /// Ensure at least `pages_needed` free DRAM pages by demoting the
  /// coldest DRAM pages (least-frequently-accessed first) across all live
  /// objects. `heat` (required) supplies a page's access count for
  /// ranking. Returns pages freed.
  using HeatFn = std::function<double(PageId)>;
  std::uint64_t MakeRoomInDram(std::uint64_t pages_needed, const HeatFn& heat);

  /// As above, with an exact per-object pruning bound: `floor(first_page)`
  /// must return a lower bound of `heat(p)` over every page of the object
  /// whose extent starts at `first_page`. The gather then skips whole
  /// objects that provably cannot contain one of the coldest pages —
  /// typically the hot objects that fill DRAM — instead of probing every
  /// DRAM-resident page's heat. The evicted page sequence is identical to
  /// the unpruned gather (the bound only skips, never reorders).
  using HeatFloorFn = std::function<double(PageId)>;
  /// `batch_heat(pages, obj_floor, threshold, out)`, when non-null, must
  /// fill `out[i]` with exactly `heat(pages[i])` — or +infinity when it can
  /// prove `heat(pages[i]) > threshold` more cheaply (`obj_floor` is the
  /// `floor` value for the pages' object). The gather treats +infinity as
  /// "provably hotter than every retained candidate" and drops the page; it
  /// passes a finite threshold only once the candidate heap is full, so a
  /// dropped page can never be among the `to_free` coldest.
  using BatchHeatFn = std::function<void(
      std::span<const PageId>, double, double, std::span<double>)>;
  std::uint64_t MakeRoomInDram(std::uint64_t pages_needed, const HeatFn& heat,
                               const HeatFloorFn& floor,
                               const BatchHeatFn& batch_heat = nullptr);

  /// Demote `k` cold-end pages of `obj` from DRAM to PM, with traffic
  /// accounting.
  std::uint64_t DemoteColdest(ObjectId obj, std::uint64_t k);

  /// Traffic since the last TakeEpochStats call.
  MigrationStats TakeEpochStats();
  const MigrationStats& lifetime_stats() const { return lifetime_; }

 private:
  void Account(Tier to, std::uint64_t pages);

  PageTable* table_;
  MigrationStats epoch_;
  MigrationStats lifetime_;
};

}  // namespace merch::hm
