#include "hm/migration.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace merch::hm {

void MigrationEngine::Account(Tier to, std::uint64_t pages) {
  const std::uint64_t bytes = pages * table_->page_bytes();
  if (to == Tier::kDram) {
    MERCH_METRIC_COUNT("merch_hm_pages_to_dram_total", pages);
  } else {
    MERCH_METRIC_COUNT("merch_hm_pages_to_pm_total", pages);
  }
  if (to == Tier::kDram) {
    epoch_.pages_to_dram += pages;
    epoch_.bytes_to_dram += bytes;
    lifetime_.pages_to_dram += pages;
    lifetime_.bytes_to_dram += bytes;
  } else {
    epoch_.pages_to_pm += pages;
    epoch_.bytes_to_pm += bytes;
    lifetime_.pages_to_pm += pages;
    lifetime_.bytes_to_pm += bytes;
  }
}

std::uint64_t MigrationEngine::MigrateHottest(ObjectId obj, std::uint64_t k,
                                              Tier to) {
  MERCH_TRACE_SPAN_VAR(span, obs::Category::kHm, "hm.migrate_hottest");
  const std::uint64_t moved = table_->MoveHottest(obj, k, to);
  if (moved < k) {
    epoch_.failed_capacity += k - moved;
    lifetime_.failed_capacity += k - moved;
    MERCH_METRIC_COUNT("merch_hm_failed_capacity_total", k - moved);
  }
  Account(to, moved);
  span.set_arg("pages", static_cast<std::int64_t>(moved));
  return moved;
}

std::uint64_t MigrationEngine::MigratePages(std::span<const PageId> pages,
                                            Tier to) {
  MERCH_TRACE_SPAN_VAR(span, obs::Category::kHm, "hm.migrate_batch");
  std::uint64_t moved = 0;
  for (const PageId p : pages) {
    if (table_->page_tier(p) == to) continue;
    if (table_->MovePage(p, to)) {
      ++moved;
    } else {
      ++epoch_.failed_capacity;
      ++lifetime_.failed_capacity;
      MERCH_METRIC_COUNT("merch_hm_failed_capacity_total", 1);
    }
  }
  Account(to, moved);
  span.set_arg("pages", static_cast<std::int64_t>(moved));
  return moved;
}

std::uint64_t MigrationEngine::DemoteColdest(ObjectId obj, std::uint64_t k) {
  MERCH_TRACE_SPAN_VAR(span, obs::Category::kHm, "hm.demote_coldest");
  const std::uint64_t moved = table_->EvictColdest(obj, k, Tier::kDram);
  Account(Tier::kPm, moved);
  span.set_arg("pages", static_cast<std::int64_t>(moved));
  return moved;
}

std::uint64_t MigrationEngine::MakeRoomInDram(std::uint64_t pages_needed,
                                              const HeatFn& heat) {
  return MakeRoomInDram(pages_needed, heat, nullptr, nullptr);
}

std::uint64_t MigrationEngine::MakeRoomInDram(std::uint64_t pages_needed,
                                              const HeatFn& heat,
                                              const HeatFloorFn& floor,
                                              const BatchHeatFn& batch_heat) {
  const std::uint64_t free_now = table_->tier_free_pages(Tier::kDram);
  if (free_now >= pages_needed) return 0;
  MERCH_TRACE_SPAN_VAR(span, obs::Category::kHm, "hm.make_room");
  const std::uint64_t to_free = pages_needed - free_now;

  // Gather DRAM-resident pages with their observed epoch counts, coldest
  // first. Object page ranges are heat-ordered, so the cold end of each
  // object is its range tail; we still order globally by observed epoch
  // accesses to mimic an LFU decision over profiling data. Ties are
  // common (saturated profiler heat collides on the 16-bit jitter), so
  // the order tie-breaks on page id: a total order makes the eviction
  // sequence independent of the selection algorithm below.
  struct Cold {
    PageId page;
    double accesses;
  };
  const auto colder = [](const Cold& a, const Cold& b) {
    if (a.accesses != b.accesses) return a.accesses < b.accesses;
    return a.page < b.page;
  };
  std::vector<Cold> candidates;
  // Index of the first candidate not yet in sorted order.
  std::size_t sorted = 0;
  // Set when candidates hold only the `to_free` coldest pages (object-floor
  // pruning below); the overflow continuation then re-gathers instead of
  // extending a full list.
  bool pruned = false;
  if (floor) {
    // Object-floor pruning: rank live objects by an exact lower bound of
    // their pages' heat, then fill a bounded max-heap of the `to_free`
    // coldest pages object by object, coldest-bound first. Once the heap
    // is full, any object whose bound exceeds the heap's hottest retained
    // key cannot contribute — pages strictly hotter than every retained
    // one can never displace them under the total order — so the gather
    // stops without probing the (typically hot, DRAM-filling) remainder.
    pruned = true;
    struct ObjFloor {
      double lb;
      ObjectId id;
    };
    std::vector<ObjFloor> objs;
    for (ObjectId id = 0; id < table_->num_objects(); ++id) {
      if (!table_->is_live(id)) continue;
      if (table_->object_pages_on(id, Tier::kDram) == 0) continue;
      objs.push_back({floor(table_->extent(id).first_page), id});
    }
    std::sort(objs.begin(), objs.end(),
              [](const ObjFloor& a, const ObjFloor& b) { return a.lb < b.lb; });
    std::vector<PageId> run_pages;    // one object's DRAM pages, ascending
    std::vector<double> run_heats;    // batch_heat output for run_pages
    const auto push_candidate = [&](const Cold& c) {
      if (candidates.size() < to_free) {
        candidates.push_back(c);
        std::push_heap(candidates.begin(), candidates.end(), colder);
      } else if (colder(c, candidates.front())) {
        std::pop_heap(candidates.begin(), candidates.end(), colder);
        candidates.back() = c;
        std::push_heap(candidates.begin(), candidates.end(), colder);
      }
    };
    for (const ObjFloor& of : objs) {
      // Strict >: a page whose heat equals the bound could still win its
      // tie on page id, so equal bounds must be probed.
      if (candidates.size() >= to_free &&
          of.lb > candidates.front().accesses) {
        break;
      }
      run_pages.clear();
      table_->AppendTierPages(of.id, /*on_dram=*/true, run_pages);
      if (batch_heat) {
        run_heats.resize(run_pages.size());
        const double threshold =
            candidates.size() >= to_free
                ? candidates.front().accesses
                : std::numeric_limits<double>::infinity();
        batch_heat(run_pages, of.lb, threshold, run_heats);
        for (std::size_t k = 0; k < run_pages.size(); ++k) {
          // +inf marks a page screened out against `threshold`; it can
          // never displace a retained candidate, so skip the insert.
          if (run_heats[k] == std::numeric_limits<double>::infinity()) {
            continue;
          }
          push_candidate({run_pages[k], run_heats[k]});
        }
      } else {
        for (const PageId p : run_pages) {
          push_candidate({p, heat(p)});
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(), colder);
    sorted = candidates.size();
  } else {
    // Enumerate exactly the DRAM-resident pages via the residency bitsets
    // (same ascending page order the probe loop produces), then select
    // the `to_free` coldest: nth_element plus a sort of that prefix
    // yields the same eviction sequence as sorting everything — the
    // comparator is a total order — at O(n + k log k) instead of
    // O(n log n) with n = all DRAM pages per interval.
    candidates.reserve(table_->tier_used_bytes(Tier::kDram) /
                       table_->page_bytes());
    std::vector<PageId> obj_pages;
    for (ObjectId id = 0; id < table_->num_objects(); ++id) {
      if (!table_->is_live(id)) continue;
      obj_pages.clear();
      table_->AppendTierPages(id, /*on_dram=*/true, obj_pages);
      for (const PageId p : obj_pages) {
        candidates.push_back({p, heat(p)});
      }
    }
    if (candidates.size() > to_free) {
      const auto mid =
          candidates.begin() + static_cast<std::ptrdiff_t>(to_free);
      std::nth_element(candidates.begin(), mid, candidates.end(), colder);
      std::sort(candidates.begin(), mid, colder);
      sorted = to_free;
    } else {
      std::sort(candidates.begin(), candidates.end(), colder);
      sorted = candidates.size();
    }
  }

  std::uint64_t freed = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (freed >= to_free) break;
    if (i == sorted) {
      // Moves past the selected prefix are needed only when PM itself ran
      // out of room; continue in the same global order.
      std::sort(candidates.begin() + static_cast<std::ptrdiff_t>(i),
                candidates.end(), colder);
      sorted = candidates.size();
    }
    if (table_->MovePage(candidates[i].page, Tier::kPm)) ++freed;
  }
  if (pruned && freed < to_free) {
    // PM itself ran out of room for some selected pages (rare). The
    // unpruned gather would continue down the same global order, so
    // re-gather the not-yet-attempted DRAM pages — moved ones already left
    // DRAM; failed ones are excluded explicitly — and keep moving in that
    // order. Heat is a pure function of this interval's oracle state, so
    // the re-gathered keys match what one full gather would have held.
    std::vector<PageId> attempted;
    attempted.reserve(candidates.size());
    for (const Cold& c : candidates) attempted.push_back(c.page);
    std::sort(attempted.begin(), attempted.end());
    std::vector<Cold> rest;
    std::vector<PageId> obj_pages;
    for (ObjectId id = 0; id < table_->num_objects(); ++id) {
      if (!table_->is_live(id)) continue;
      obj_pages.clear();
      table_->AppendTierPages(id, /*on_dram=*/true, obj_pages);
      for (const PageId p : obj_pages) {
        if (!std::binary_search(attempted.begin(), attempted.end(), p)) {
          rest.push_back({p, heat(p)});
        }
      }
    }
    std::sort(rest.begin(), rest.end(), colder);
    for (const Cold& c : rest) {
      if (freed >= to_free) break;
      if (table_->MovePage(c.page, Tier::kPm)) ++freed;
    }
  }
  Account(Tier::kPm, freed);
  MERCH_METRIC_COUNT("merch_hm_evictions_total", freed);
  span.set_arg("pages", static_cast<std::int64_t>(freed));
  return freed;
}

MigrationStats MigrationEngine::TakeEpochStats() {
  MigrationStats out = epoch_;
  epoch_ = MigrationStats{};
  return out;
}

}  // namespace merch::hm
