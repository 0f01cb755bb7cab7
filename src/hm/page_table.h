// Simulated page table: tracks which object owns each page and which tier
// holds it, plus per-object residency bookkeeping. Per-page access counts
// are not stored here: the simulator's access oracle (src/sim/oracle.h)
// materialises them on demand from object-level totals.
//
// Objects are allocated as contiguous page ranges. Within an object, pages
// are indexed in *heat order*: page 0 receives the most accesses under the
// object's heat profile (src/trace). This canonical ordering loses nothing
// for placement studies (any permutation of page ids would behave
// identically) and makes "migrate the hottest k pages" an O(1) range
// operation for ideal policies while sampling-based policies still probe
// individual pages.
//
// Residency queries are served from an incremental per-object index kept
// in lock-step with every page move:
//   - a rank-order DRAM bitset   -> page_rank_on_dram is O(1)
//   - a Fenwick tree over ranks  -> dram_pages_in_rank_range is O(log n)
//   - a per-page (owner, tier)   -> ObjectOfPage and page_tier are O(1)
// The index mirrors physical page tiers exactly (including pages of
// released objects, whose tiers do not change on release), so the probing
// and indexed read paths agree bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "hm/tier.h"

namespace merch::hm {

/// One registered data object's page range.
struct ObjectExtent {
  ObjectId id = kInvalidObject;
  TaskId owner = kInvalidTask;  // task that predominantly accesses it
  PageId first_page = 0;
  std::uint64_t num_pages = 0;
  std::uint64_t bytes = 0;
};

class PageTable {
 public:
  /// `page_bytes` is the placement granularity. The paper migrates 4 KiB
  /// pages; large simulations use 2 MiB regions to bound metadata (the
  /// ratio of sizes, not the absolute granularity, drives every result).
  PageTable(HmSpec spec, std::uint64_t page_bytes = kHugeRegionBytes);

  /// Allocate `bytes` for an object on `initial` tier (falls back to the
  /// other tier if full; returns nullopt only if both tiers are full).
  std::optional<ObjectId> RegisterObject(std::uint64_t bytes, Tier initial,
                                         TaskId owner = kInvalidTask);

  /// Release an object's pages (WarpX-PM-style lifetime management needs
  /// deallocation). Its ObjectId is not reused.
  void ReleaseObject(ObjectId id);

  std::size_t num_objects() const { return extents_.size(); }
  const ObjectExtent& extent(ObjectId id) const { return extents_[id]; }
  bool is_live(ObjectId id) const { return live_[id]; }

  std::uint64_t page_bytes() const { return page_bytes_; }
  const HmSpec& spec() const { return spec_; }

  /// Tier of page `p`, served from the packed per-page record. Tier and
  /// owner share one 8-byte record on purpose: a profiler sample reads
  /// both and takes one cache miss, not two.
  Tier page_tier(PageId p) const { return page_ref_[p].tier; }
  std::uint64_t num_pages() const { return page_ref_.size(); }

  /// Which live object owns page `p`. O(1) via the packed per-page record
  /// (inline: profiler samples hit this tens of millions of times per
  /// run).
  std::optional<ObjectId> ObjectOfPage(PageId p) const {
    if (p >= page_ref_.size()) return std::nullopt;
    const ObjectId id = page_ref_[p].owner;
    if (!live_[id]) return std::nullopt;
    return id;
  }

  /// Bytes currently resident on `t`.
  std::uint64_t tier_used_bytes(Tier t) const {
    return used_pages_[static_cast<std::size_t>(t)] * page_bytes_;
  }
  std::uint64_t tier_free_bytes(Tier t) const {
    const std::uint64_t cap = spec_[t].capacity_bytes;
    const std::uint64_t used = tier_used_bytes(t);
    return cap > used ? cap - used : 0;
  }
  std::uint64_t tier_free_pages(Tier t) const {
    return tier_free_bytes(t) / page_bytes_;
  }

  /// Number of an object's pages resident on `t` (O(1); zero for a
  /// released object regardless of where its stale pages sit).
  std::uint64_t object_pages_on(ObjectId id, Tier t) const;

  /// Whether the page at heat rank `rank` of `id` is on DRAM. O(1) bitset
  /// probe; mirrors page_tier(extent.first_page + rank) exactly.
  bool page_rank_on_dram(ObjectId id, std::uint64_t rank) const {
    const std::vector<std::uint64_t>& bits = residency_[id].bits;
    return ((bits[rank >> 6] >> (rank & 63)) & 1u) != 0;
  }

  /// Raw rank-order DRAM bitset of `id` (bit = 1 means on DRAM). Lets
  /// batched probe loops (the engine's SIMD sweep windows) hoist the
  /// per-object indirection out of their inner loop; each word read agrees
  /// with page_rank_on_dram bit for bit.
  std::span<const std::uint64_t> residency_bits(ObjectId id) const {
    return residency_[id].bits;
  }

  /// DRAM pages among heat ranks [r0, r1) of `id`. O(log num_pages) via
  /// the per-object Fenwick tree.
  std::uint64_t dram_pages_in_rank_range(ObjectId id, std::uint64_t r0,
                                         std::uint64_t r1) const;

  /// Move one page to `to`. Returns false if `to` is at capacity.
  bool MovePage(PageId p, Tier to);

  /// Move the first `k` not-yet-on-`to` pages of the object, scanning from
  /// the hot end (rank 0). Returns pages actually moved.
  std::uint64_t MoveHottest(ObjectId id, std::uint64_t k, Tier to);

  /// Move the last `k` pages of the object that are on `from` (cold end)
  /// to the other tier. Returns pages actually moved.
  std::uint64_t EvictColdest(ObjectId id, std::uint64_t k, Tier from);

  /// Observer invoked after every page move (p, from, to). The simulator
  /// uses it to maintain per-object heat-weighted DRAM fractions
  /// incrementally. At most one listener.
  using MoveListener = std::function<void(PageId, Tier, Tier)>;
  void SetMoveListener(MoveListener listener) {
    move_listener_ = std::move(listener);
  }

  /// First rank in [start, num_pages) of `id` whose residency matches
  /// `on_dram`, or num_pages. Word-skipping scan over the bitset; visits
  /// ranks in the same ascending order a per-page probe loop would, so
  /// callers can enumerate an object's DRAM pages without touching its PM
  /// pages.
  std::uint64_t FindRank(ObjectId id, std::uint64_t start, bool on_dram) const;

  /// Append every page of `id` whose residency matches `on_dram`, in
  /// ascending page order — the sequence FindRank hops would visit, in one
  /// scan over the bitset words instead of a call per page. Eviction
  /// gathers enumerate tens of millions of pages per run; the per-call
  /// overhead of the hop loop was their largest cost.
  void AppendTierPages(ObjectId id, bool on_dram,
                       std::vector<PageId>& out) const;

  /// Highest rank < end whose residency matches `on_dram`, or num_pages
  /// when none exists.
  std::uint64_t FindRankBefore(ObjectId id, std::uint64_t end,
                               bool on_dram) const;

 private:
  /// Per-object incremental DRAM-residency index over heat ranks.
  struct ResidencyIndex {
    std::vector<std::uint64_t> bits;   // bit per rank, 1 = on DRAM
    std::vector<std::uint32_t> tree;   // 1-based Fenwick over ranks
  };

  void NotifyMove(PageId p, Tier from, Tier to) {
    if (move_listener_) move_listener_(p, from, to);
  }

  /// Retier page `p` of object `owner`: usage counters, residency index,
  /// live-object DRAM count, listener. Caller has verified `p` is not on
  /// `to` and `to` has capacity.
  void CommitMove(ObjectId owner, PageId p, Tier to);

  void SetResidency(ObjectId id, std::uint64_t rank, bool on_dram);

  MoveListener move_listener_;
  HmSpec spec_;
  std::uint64_t page_bytes_;
  /// The one per-page record, (owner, tier) in 8 bytes, so a random probe
  /// that needs both — every profiler sample — takes one cache miss. Owner
  /// ignores liveness: index maintenance tracks stale pages of released
  /// objects too.
  struct PageRef {
    ObjectId owner;
    Tier tier;
  };
  std::vector<PageRef> page_ref_;
  std::vector<ObjectExtent> extents_;
  std::vector<bool> live_;
  std::uint64_t used_pages_[kNumTiers] = {0, 0};
  // Per-object count of pages on DRAM, to answer object_pages_on in O(1).
  std::vector<std::uint64_t> dram_pages_per_object_;
  std::vector<ResidencyIndex> residency_;
};

}  // namespace merch::hm
