#include "hm/page_table.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace merch::hm {
namespace {

/// Lowest set bit of a 1-based Fenwick position.
constexpr std::uint64_t LowBit(std::uint64_t i) { return i & (~i + 1); }

}  // namespace

PageTable::PageTable(HmSpec spec, std::uint64_t page_bytes)
    : spec_(spec), page_bytes_(page_bytes) {
  assert(page_bytes_ > 0);
}

std::optional<ObjectId> PageTable::RegisterObject(std::uint64_t bytes,
                                                  Tier initial, TaskId owner) {
  const std::uint64_t npages = (bytes + page_bytes_ - 1) / page_bytes_;
  Tier tier = initial;
  if (tier_free_pages(tier) < npages) {
    tier = OtherTier(tier);
    if (tier_free_pages(tier) < npages) return std::nullopt;
  }
  const auto id = static_cast<ObjectId>(extents_.size());
  const PageId first = page_ref_.size();
  page_ref_.resize(page_ref_.size() + npages, PageRef{id, tier});
  used_pages_[static_cast<std::size_t>(tier)] += npages;
  extents_.push_back(ObjectExtent{.id = id,
                                  .owner = owner,
                                  .first_page = first,
                                  .num_pages = npages,
                                  .bytes = bytes});
  live_.push_back(true);
  const bool on_dram = tier == Tier::kDram;
  dram_pages_per_object_.push_back(on_dram ? npages : 0);
  ResidencyIndex ri;
  ri.bits.assign((npages + 63) / 64, on_dram ? ~0ull : 0ull);
  if (on_dram && (npages & 63) != 0) {
    ri.bits.back() = (1ull << (npages & 63)) - 1;  // clear past-end ranks
  }
  // A Fenwick tree over an all-equal array builds in O(n): position i
  // covers LowBit(i) ranks, each contributing 0 or 1.
  ri.tree.assign(npages + 1, 0);
  if (on_dram) {
    for (std::uint64_t i = 1; i <= npages; ++i) {
      ri.tree[i] = static_cast<std::uint32_t>(LowBit(i));
    }
  }
  residency_.push_back(std::move(ri));
  MERCH_METRIC_COUNT("merch_hm_objects_registered_total", 1);
  MERCH_METRIC_GAUGE_SET("merch_hm_pages", page_ref_.size());
  MERCH_TRACE_INSTANT_ARG(obs::Category::kHm, "hm.register_object", "pages",
                          npages);
  return id;
}

void PageTable::ReleaseObject(ObjectId id) {
  assert(id < extents_.size());
  if (!live_[id]) return;
  const ObjectExtent& e = extents_[id];
  for (PageId p = e.first_page; p < e.first_page + e.num_pages; ++p) {
    used_pages_[static_cast<std::size_t>(page_ref_[p].tier)] -= 1;
  }
  // The residency index keeps mirroring the (unchanged) page tiers; only
  // the live-object DRAM count is zeroed, like the capacity accounting.
  dram_pages_per_object_[id] = 0;
  live_[id] = false;
  MERCH_TRACE_INSTANT_ARG(obs::Category::kHm, "hm.release_object", "pages",
                          e.num_pages);
}

std::uint64_t PageTable::object_pages_on(ObjectId id, Tier t) const {
  assert(id < extents_.size());
  const std::uint64_t on_dram = dram_pages_per_object_[id];
  return t == Tier::kDram ? on_dram : extents_[id].num_pages - on_dram;
}

std::uint64_t PageTable::dram_pages_in_rank_range(ObjectId id,
                                                  std::uint64_t r0,
                                                  std::uint64_t r1) const {
  assert(id < extents_.size());
  const std::vector<std::uint32_t>& tree = residency_[id].tree;
  r1 = std::min<std::uint64_t>(r1, extents_[id].num_pages);
  r0 = std::min(r0, r1);
  std::uint64_t sum = 0;
  for (std::uint64_t i = r1; i > 0; i -= LowBit(i)) sum += tree[i];
  for (std::uint64_t i = r0; i > 0; i -= LowBit(i)) sum -= tree[i];
  return sum;
}

void PageTable::SetResidency(ObjectId id, std::uint64_t rank, bool on_dram) {
  ResidencyIndex& ri = residency_[id];
  std::uint64_t& word = ri.bits[rank >> 6];
  const std::uint64_t mask = 1ull << (rank & 63);
  assert(((word & mask) != 0) != on_dram && "residency out of sync");
  word ^= mask;
  const std::uint32_t delta = on_dram ? 1u : ~0u;  // +1 / -1 mod 2^32
  for (std::uint64_t i = rank + 1; i < ri.tree.size(); i += LowBit(i)) {
    ri.tree[i] += delta;
  }
}

std::uint64_t PageTable::FindRank(ObjectId id, std::uint64_t start,
                                  bool on_dram) const {
  const std::uint64_t n = extents_[id].num_pages;
  const std::vector<std::uint64_t>& bits = residency_[id].bits;
  std::uint64_t w = start >> 6;
  while (w < bits.size()) {
    // Bits equal to the target become 1; mask off ranks before `start`.
    std::uint64_t match = on_dram ? bits[w] : ~bits[w];
    if (w == start >> 6) match &= ~0ull << (start & 63);
    if (match != 0) {
      const std::uint64_t rank = (w << 6) + std::countr_zero(match);
      return rank < n ? rank : n;
    }
    ++w;
  }
  return n;
}

void PageTable::AppendTierPages(ObjectId id, bool on_dram,
                                std::vector<PageId>& out) const {
  const ObjectExtent& e = extents_[id];
  const std::vector<std::uint64_t>& bits = residency_[id].bits;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    // DRAM bits past num_pages stay clear by construction; the inverted
    // (PM) view turns them on, so the rank guard below stops the tail.
    std::uint64_t match = on_dram ? bits[w] : ~bits[w];
    while (match != 0) {
      const std::uint64_t rank =
          (w << 6) + static_cast<std::uint64_t>(std::countr_zero(match));
      if (rank >= e.num_pages) return;
      out.push_back(e.first_page + rank);
      match &= match - 1;
    }
  }
}

std::uint64_t PageTable::FindRankBefore(ObjectId id, std::uint64_t end,
                                        bool on_dram) const {
  const std::uint64_t n = extents_[id].num_pages;
  if (end == 0) return n;
  std::uint64_t w = (end - 1) >> 6;
  while (true) {
    std::uint64_t match = on_dram ? residency_[id].bits[w] : ~residency_[id].bits[w];
    if (w == (end - 1) >> 6) {
      const std::uint64_t top = (end - 1) & 63;  // highest admissible bit
      match &= top == 63 ? ~0ull : (1ull << (top + 1)) - 1;
    }
    // Past-end ranks in the last word read as "PM" in the raw bitset;
    // clamp so a !on_dram search cannot return them.
    if (match != 0) {
      const std::uint64_t rank = (w << 6) + 63 - std::countl_zero(match);
      if (rank < n) return rank;
      match &= (1ull << (n & 63)) - 1;
      if (match != 0) return (w << 6) + 63 - std::countl_zero(match);
    }
    if (w == 0) return n;
    --w;
  }
}

void PageTable::CommitMove(ObjectId owner, PageId p, Tier to) {
  PageRef& ref = page_ref_[p];
  const Tier from = ref.tier;
  assert(from != to);
  used_pages_[static_cast<std::size_t>(from)] -= 1;
  used_pages_[static_cast<std::size_t>(to)] += 1;
  ref.tier = to;
  SetResidency(owner, p - extents_[owner].first_page, to == Tier::kDram);
  if (live_[owner]) {
    dram_pages_per_object_[owner] += (to == Tier::kDram) ? 1 : -1;
  }
  NotifyMove(p, from, to);
}

bool PageTable::MovePage(PageId p, Tier to) {
  assert(p < page_ref_.size());
  const PageRef ref = page_ref_[p];
  if (ref.tier == to) return true;
  if (tier_free_pages(to) == 0) return false;
  CommitMove(ref.owner, p, to);
  return true;
}

std::uint64_t PageTable::MoveHottest(ObjectId id, std::uint64_t k, Tier to) {
  assert(id < extents_.size() && live_[id]);
  const ObjectExtent& e = extents_[id];
  std::uint64_t moved = 0;
  const bool source_dram = to == Tier::kPm;  // pages not yet on `to`
  std::uint64_t rank = FindRank(id, 0, source_dram);
  while (rank < e.num_pages && moved < k) {
    if (tier_free_pages(to) == 0) break;
    CommitMove(id, e.first_page + rank, to);
    ++moved;
    rank = FindRank(id, rank + 1, source_dram);
  }
  return moved;
}

std::uint64_t PageTable::EvictColdest(ObjectId id, std::uint64_t k,
                                      Tier from) {
  assert(id < extents_.size() && live_[id]);
  const ObjectExtent& e = extents_[id];
  const Tier to = OtherTier(from);
  std::uint64_t moved = 0;
  const bool source_dram = from == Tier::kDram;
  std::uint64_t rank = FindRankBefore(id, e.num_pages, source_dram);
  while (rank < e.num_pages && moved < k) {
    if (tier_free_pages(to) == 0) break;
    CommitMove(id, e.first_page + rank, to);
    ++moved;
    if (rank == 0) break;
    rank = FindRankBefore(id, rank, source_dram);
  }
  return moved;
}

}  // namespace merch::hm
