// Unit tests for the simulated page table (hm/page_table.h), its
// residency index, and the index-backed eviction gather of
// hm/migration.h, checked against brute-force and linear-scan models.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "hm/migration.h"
#include "hm/page_table.h"

namespace merch::hm {
namespace {

/// The page table as linear scans over a flat tier array: what the
/// residency index and the heat-ordered eviction gather replace. It keeps
/// its own copy of every page's tier and of the capacity accounting, and
/// reports each move to `moves`, so a table and a model driven by the
/// same operations must produce the same move stream.
class LinearScanModel {
 public:
  LinearScanModel(const HmSpec& spec, std::uint64_t page_bytes)
      : page_bytes_(page_bytes) {
    capacity_[0] = spec[Tier::kDram].capacity_bytes / page_bytes;
    capacity_[1] = spec[Tier::kPm].capacity_bytes / page_bytes;
  }

  std::vector<std::pair<PageId, Tier>> moves;

  void Register(std::uint64_t bytes, Tier initial) {
    const std::uint64_t n = (bytes + page_bytes_ - 1) / page_bytes_;
    const Tier t = free_pages(initial) >= n ? initial : OtherTier(initial);
    extents_.push_back({tier_.size(), n});
    tier_.resize(tier_.size() + n, t);
    used(t) += n;
  }

  Tier tier(PageId p) const { return tier_[p]; }

  std::optional<ObjectId> ObjectOfPage(PageId p) const {
    for (ObjectId id = 0; id < extents_.size(); ++id) {
      const auto [first, n] = extents_[id];
      if (p >= first && p < first + n) return id;
    }
    return std::nullopt;
  }

  bool MovePage(PageId p, Tier to) {
    if (tier_[p] == to) return true;
    if (free_pages(to) == 0) return false;
    Move(p, to);
    return true;
  }

  /// Probe every page from the hot end.
  std::uint64_t MoveHottest(ObjectId id, std::uint64_t k, Tier to) {
    const auto [first, n] = extents_[id];
    std::uint64_t moved = 0;
    for (PageId p = first; p < first + n && moved < k; ++p) {
      if (tier_[p] == to) continue;
      if (free_pages(to) == 0) break;
      Move(p, to);
      ++moved;
    }
    return moved;
  }

  /// Probe every page from the cold end.
  std::uint64_t EvictColdest(ObjectId id, std::uint64_t k, Tier from) {
    const auto [first, n] = extents_[id];
    std::uint64_t moved = 0;
    for (PageId p = first + n; p > first && moved < k; --p) {
      if (tier_[p - 1] != from) continue;
      if (free_pages(OtherTier(from)) == 0) break;
      Move(p - 1, OtherTier(from));
      ++moved;
    }
    return moved;
  }

  /// Every DRAM page, fully sorted by (heat, page), demoted in that order.
  template <typename Heat>
  std::uint64_t MakeRoomInDram(std::uint64_t pages_needed, const Heat& heat) {
    if (free_pages(Tier::kDram) >= pages_needed) return 0;
    const std::uint64_t to_free = pages_needed - free_pages(Tier::kDram);
    std::vector<std::pair<double, PageId>> cold;
    for (PageId p = 0; p < tier_.size(); ++p) {
      if (tier_[p] == Tier::kDram) cold.emplace_back(heat(p), p);
    }
    std::sort(cold.begin(), cold.end());
    std::uint64_t freed = 0;
    for (const auto& [h, p] : cold) {
      if (freed >= to_free) break;
      if (MovePage(p, Tier::kPm)) ++freed;
    }
    return freed;
  }

 private:
  std::uint64_t& used(Tier t) { return used_[t == Tier::kDram ? 0 : 1]; }
  std::uint64_t free_pages(Tier t) {
    const std::uint64_t cap = capacity_[t == Tier::kDram ? 0 : 1];
    return cap > used(t) ? cap - used(t) : 0;
  }
  void Move(PageId p, Tier to) {
    --used(tier_[p]);
    ++used(to);
    tier_[p] = to;
    moves.emplace_back(p, to);
  }

  std::uint64_t page_bytes_;
  std::uint64_t capacity_[2] = {0, 0};
  std::uint64_t used_[2] = {0, 0};
  std::vector<Tier> tier_;
  std::vector<std::pair<PageId, std::uint64_t>> extents_;  // (first, pages)
};

HmSpec SmallSpec() {
  HmSpec spec = HmSpec::PaperOptane();
  spec[Tier::kDram].capacity_bytes = 8 * kPageBytes * 1024;  // 8 Ki pages...
  spec[Tier::kDram].capacity_bytes = 8 * 4096;               // 8 pages of 4K
  spec[Tier::kPm].capacity_bytes = 64 * 4096;                // 64 pages
  return spec;
}

TEST(PageTable, RegisterAllocatesContiguousPages) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 3, Tier::kPm);
  const auto b = pt.RegisterObject(4096 * 2, Tier::kPm);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(pt.extent(*a).first_page, 0u);
  EXPECT_EQ(pt.extent(*a).num_pages, 3u);
  EXPECT_EQ(pt.extent(*b).first_page, 3u);
  EXPECT_EQ(pt.num_pages(), 5u);
}

TEST(PageTable, PartialPageRoundsUp) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4097, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.extent(*a).num_pages, 2u);
}

TEST(PageTable, FallsBackToOtherTierWhenFull) {
  PageTable pt(SmallSpec(), 4096);
  // DRAM holds 8 pages; ask for 10 on DRAM -> lands on PM.
  const auto a = pt.RegisterObject(4096 * 10, Tier::kDram);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.page_tier(pt.extent(*a).first_page), Tier::kPm);
}

TEST(PageTable, RejectsWhenBothTiersFull) {
  PageTable pt(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096 * 64, Tier::kPm));
  EXPECT_FALSE(pt.RegisterObject(4096 * 16, Tier::kPm).has_value());
}

TEST(PageTable, MovePageUpdatesUsage) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.tier_used_bytes(Tier::kDram), 0u);
  EXPECT_TRUE(pt.MovePage(0, Tier::kDram));
  EXPECT_EQ(pt.tier_used_bytes(Tier::kDram), 4096u);
  EXPECT_EQ(pt.page_tier(0), Tier::kDram);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kDram), 1u);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kPm), 3u);
}

TEST(PageTable, MovePageToSameTierIsNoop) {
  PageTable pt(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096, Tier::kPm));
  EXPECT_TRUE(pt.MovePage(0, Tier::kPm));
  EXPECT_EQ(pt.tier_used_bytes(Tier::kDram), 0u);
}

TEST(PageTable, MovePageFailsAtCapacity) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 16, Tier::kPm);
  ASSERT_TRUE(a);
  // Fill DRAM (8 pages).
  EXPECT_EQ(pt.MoveHottest(*a, 8, Tier::kDram), 8u);
  EXPECT_FALSE(pt.MovePage(15, Tier::kDram));
}

TEST(PageTable, MoveHottestTakesPrefix) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.MoveHottest(*a, 3, Tier::kDram), 3u);
  EXPECT_EQ(pt.page_tier(0), Tier::kDram);
  EXPECT_EQ(pt.page_tier(2), Tier::kDram);
  EXPECT_EQ(pt.page_tier(3), Tier::kPm);
}

TEST(PageTable, MoveHottestSkipsAlreadyResident) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 2, Tier::kDram);
  EXPECT_EQ(pt.MoveHottest(*a, 2, Tier::kDram), 2u);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kDram), 4u);
  EXPECT_EQ(pt.page_tier(3), Tier::kDram);
}

TEST(PageTable, EvictColdestTakesSuffix) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 6, Tier::kDram);
  EXPECT_EQ(pt.EvictColdest(*a, 2, Tier::kDram), 2u);
  EXPECT_EQ(pt.page_tier(5), Tier::kPm);
  EXPECT_EQ(pt.page_tier(4), Tier::kPm);
  EXPECT_EQ(pt.page_tier(3), Tier::kDram);
}

TEST(PageTable, ObjectOfPage) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 2, Tier::kPm);
  const auto b = pt.RegisterObject(4096 * 3, Tier::kPm);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(pt.ObjectOfPage(0), *a);
  EXPECT_EQ(pt.ObjectOfPage(2), *b);
  EXPECT_EQ(pt.ObjectOfPage(4), *b);
  EXPECT_FALSE(pt.ObjectOfPage(99).has_value());
}

TEST(PageTable, ReleaseFreesCapacity) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 60, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_FALSE(pt.RegisterObject(4096 * 10, Tier::kPm).has_value());
  pt.ReleaseObject(*a);
  EXPECT_FALSE(pt.is_live(*a));
  EXPECT_TRUE(pt.RegisterObject(4096 * 10, Tier::kPm).has_value());
}

TEST(PageTable, ObjectOfPageIgnoresReleasedObjects) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 2, Tier::kPm);
  const auto b = pt.RegisterObject(4096 * 3, Tier::kPm);
  ASSERT_TRUE(a && b);
  pt.ReleaseObject(*a);
  EXPECT_FALSE(pt.ObjectOfPage(0).has_value());  // released
  EXPECT_EQ(pt.ObjectOfPage(2), *b);             // later extents unaffected
}

TEST(PageTable, RankResidencyMirrorsPageTiers) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 2, Tier::kDram);
  pt.MovePage(4, Tier::kDram);
  for (std::uint64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(pt.page_rank_on_dram(*a, r),
              pt.page_tier(pt.extent(*a).first_page + r) == Tier::kDram);
  }
}

TEST(PageTable, DramPagesInRankRange) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 8, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MovePage(1, Tier::kDram);
  pt.MovePage(2, Tier::kDram);
  pt.MovePage(6, Tier::kDram);
  EXPECT_EQ(pt.dram_pages_in_rank_range(*a, 0, 8), 3u);
  EXPECT_EQ(pt.dram_pages_in_rank_range(*a, 1, 3), 2u);
  EXPECT_EQ(pt.dram_pages_in_rank_range(*a, 3, 6), 0u);
  EXPECT_EQ(pt.dram_pages_in_rank_range(*a, 4, 4), 0u);  // empty range
  EXPECT_EQ(pt.dram_pages_in_rank_range(*a, 6, 99), 1u);  // clamped end
}

TEST(PageTable, FindRankWalksResidency) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 8, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MovePage(2, Tier::kDram);
  pt.MovePage(5, Tier::kDram);
  EXPECT_EQ(pt.FindRank(*a, 0, true), 2u);
  EXPECT_EQ(pt.FindRank(*a, 3, true), 5u);
  EXPECT_EQ(pt.FindRank(*a, 6, true), 8u);  // none left -> num_pages
  EXPECT_EQ(pt.FindRank(*a, 0, false), 0u);
  EXPECT_EQ(pt.FindRankBefore(*a, 8, true), 5u);
  EXPECT_EQ(pt.FindRankBefore(*a, 5, true), 2u);
  EXPECT_EQ(pt.FindRankBefore(*a, 2, true), 8u);  // none below -> num_pages
  EXPECT_EQ(pt.FindRankBefore(*a, 0, false), 8u);  // empty prefix
}

TEST(PageTable, LegacyScanMatchesIndexedOps) {
  PageTable pt(SmallSpec(), 4096);
  LinearScanModel model(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096 * 7, Tier::kPm));
  model.Register(4096 * 7, Tier::kPm);
  EXPECT_EQ(pt.MoveHottest(0, 3, Tier::kDram),
            model.MoveHottest(0, 3, Tier::kDram));
  EXPECT_EQ(pt.MovePage(5, Tier::kDram), model.MovePage(5, Tier::kDram));
  EXPECT_EQ(pt.EvictColdest(0, 2, Tier::kDram),
            model.EvictColdest(0, 2, Tier::kDram));
  for (PageId p = 0; p < pt.num_pages(); ++p) {
    EXPECT_EQ(pt.page_tier(p), model.tier(p));
  }
  EXPECT_EQ(pt.ObjectOfPage(4), model.ObjectOfPage(4));
}

TEST(PageTable, MoveListenerObservesMoves) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  std::vector<PageId> moved;
  pt.SetMoveListener([&](PageId p, Tier from, Tier to) {
    EXPECT_EQ(from, Tier::kPm);
    EXPECT_EQ(to, Tier::kDram);
    moved.push_back(p);
  });
  pt.MoveHottest(*a, 2, Tier::kDram);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], 0u);
  EXPECT_EQ(moved[1], 1u);
}

TEST(PageTable, ListenerSeesEvictions) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 4, Tier::kDram);
  int demotions = 0;
  pt.SetMoveListener([&](PageId, Tier from, Tier to) {
    EXPECT_EQ(from, Tier::kDram);
    EXPECT_EQ(to, Tier::kPm);
    ++demotions;
  });
  pt.EvictColdest(*a, 3, Tier::kDram);
  EXPECT_EQ(demotions, 3);
}

// --- Residency index vs brute force ----------------------------------------

HmSpec TinySpec() {
  HmSpec spec = HmSpec::PaperOptane();
  spec[Tier::kDram].capacity_bytes = 96 * 4096;
  spec[Tier::kPm].capacity_bytes = 512 * 4096;
  return spec;
}

/// The move listener is the ground truth: whatever the table reports
/// moved is mirrored into a flat tier array, and every index query must
/// agree with a linear scan of that array.
struct BruteMirror {
  std::vector<Tier> tier;
  void Attach(PageTable& pt) {
    pt.SetMoveListener([this](PageId p, Tier, Tier to) {
      tier[p] = to;
    });
  }
};

TEST(ResidencyIndex, RandomOpsMatchBruteForce) {
  std::mt19937_64 rng(0xC0FFEE);
  PageTable pt(TinySpec(), 4096);
  std::vector<ObjectId> objects;
  for (const std::uint64_t pages : {37u, 5u, 64u, 3u, 129u, 18u, 1u, 70u}) {
    const auto id = pt.RegisterObject(pages * 4096,
                                      pages % 2 ? Tier::kDram
                                                : Tier::kPm);
    ASSERT_TRUE(id.has_value());
    objects.push_back(*id);
  }
  BruteMirror brute;
  brute.tier.resize(pt.num_pages());
  for (PageId p = 0; p < pt.num_pages(); ++p) brute.tier[p] = pt.page_tier(p);
  brute.Attach(pt);

  auto live_object = [&]() -> std::optional<ObjectId> {
    std::vector<ObjectId> live;
    for (const ObjectId id : objects) {
      if (pt.is_live(id)) live.push_back(id);
    }
    if (live.empty()) return std::nullopt;
    return live[rng() % live.size()];
  };

  int releases = 0;
  for (int op = 0; op < 4000; ++op) {
    const auto obj = live_object();
    if (!obj.has_value()) break;
    const ObjectExtent& e = pt.extent(*obj);
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        pt.MovePage(e.first_page + rng() % e.num_pages,
                    rng() % 2 ? Tier::kDram : Tier::kPm);
        break;
      case 3:
      case 4:
        pt.MoveHottest(*obj, rng() % 12,
                       rng() % 2 ? Tier::kDram : Tier::kPm);
        break;
      case 5:
      case 6:
        pt.EvictColdest(*obj, rng() % 12,
                        rng() % 2 ? Tier::kDram : Tier::kPm);
        break;
      default:
        if (releases < 2 && op > 1000) {
          pt.ReleaseObject(*obj);
          ++releases;
        }
        break;
    }

    // Spot-check every index query against the brute mirror.
    const ObjectId probe = objects[rng() % objects.size()];
    const ObjectExtent& pe = pt.extent(probe);
    const std::uint64_t rank = rng() % pe.num_pages;
    EXPECT_EQ(pt.page_rank_on_dram(probe, rank),
              brute.tier[pe.first_page + rank] == Tier::kDram);
    std::uint64_t r0 = rng() % (pe.num_pages + 1);
    std::uint64_t r1 = rng() % (pe.num_pages + 1);
    if (r0 > r1) std::swap(r0, r1);
    std::uint64_t expect = 0;
    for (std::uint64_t r = r0; r < r1; ++r) {
      if (brute.tier[pe.first_page + r] == Tier::kDram) ++expect;
    }
    ASSERT_EQ(pt.dram_pages_in_rank_range(probe, r0, r1), expect);
    if (pt.is_live(probe)) {
      std::uint64_t on_dram = 0;
      for (std::uint64_t r = 0; r < pe.num_pages; ++r) {
        if (brute.tier[pe.first_page + r] == Tier::kDram) ++on_dram;
      }
      ASSERT_EQ(pt.object_pages_on(probe, Tier::kDram), on_dram);
      // FindRank / FindRankBefore agree with linear scans.
      const bool want_dram = rng() % 2;
      const std::uint64_t start = rng() % pe.num_pages;
      std::uint64_t first = pe.num_pages;
      for (std::uint64_t r = start; r < pe.num_pages; ++r) {
        if ((brute.tier[pe.first_page + r] == Tier::kDram) == want_dram) {
          first = r;
          break;
        }
      }
      EXPECT_EQ(pt.FindRank(probe, start, want_dram), first);
      const std::uint64_t end = rng() % (pe.num_pages + 1);
      std::uint64_t last = pe.num_pages;
      for (std::uint64_t r = end; r > 0; --r) {
        if ((brute.tier[pe.first_page + r - 1] == Tier::kDram) ==
            want_dram) {
          last = r - 1;
          break;
        }
      }
      EXPECT_EQ(pt.FindRankBefore(probe, end, want_dram), last);
    } else {
      EXPECT_EQ(pt.object_pages_on(probe, Tier::kDram), 0u);
    }
    const PageId page = rng() % pt.num_pages();
    const auto owner = pt.ObjectOfPage(page);
    std::optional<ObjectId> expect_owner;
    for (const ObjectId id : objects) {
      const ObjectExtent& oe = pt.extent(id);
      if (pt.is_live(id) && page >= oe.first_page &&
          page < oe.first_page + oe.num_pages) {
        expect_owner = id;
      }
    }
    ASSERT_EQ(owner, expect_owner);
  }
  EXPECT_EQ(releases, 2);
}

/// The index-backed table and eviction gather must make the same moves
/// (same pages, same order) with the same return values as the
/// linear-scan model under one random operation sequence.
TEST(ResidencyIndex, LegacyScanIsBitIdentical) {
  PageTable pt(TinySpec(), 4096);
  LinearScanModel model(TinySpec(), 4096);
  std::vector<std::pair<PageId, Tier>> moves;
  pt.SetMoveListener(
      [&](PageId p, Tier, Tier to) { moves.emplace_back(p, to); });
  for (const std::uint64_t pages : {23u, 64u, 7u, 130u, 41u}) {
    const Tier t = pages % 2 ? Tier::kDram : Tier::kPm;
    ASSERT_TRUE(pt.RegisterObject(pages * 4096, t));
    model.Register(pages * 4096, t);
  }
  MigrationEngine mig(pt);
  // Deterministic synthetic heat: hash of the page id.
  const auto heat = [](PageId p) {
    return static_cast<double>((p * 2654435761u) % 97);
  };
  std::mt19937_64 rng(7);
  for (int op = 0; op < 600; ++op) {
    const ObjectId obj = rng() % pt.num_objects();
    const std::uint64_t k = rng() % 9;
    const Tier t = rng() % 2 ? Tier::kDram : Tier::kPm;
    switch (rng() % 4) {
      case 0:
        ASSERT_EQ(pt.MoveHottest(obj, k, t), model.MoveHottest(obj, k, t));
        break;
      case 1:
        ASSERT_EQ(pt.EvictColdest(obj, k, t), model.EvictColdest(obj, k, t));
        break;
      case 2: {
        const PageId p = rng() % pt.num_pages();
        ASSERT_EQ(pt.MovePage(p, t), model.MovePage(p, t));
        ASSERT_EQ(pt.ObjectOfPage(p), model.ObjectOfPage(p));
        break;
      }
      default:
        // The index-backed gather + nth_element selection must evict the
        // same pages in the same order as the full sort.
        ASSERT_EQ(mig.MakeRoomInDram(k * 3, heat),
                  model.MakeRoomInDram(k * 3, heat));
        break;
    }
    ASSERT_EQ(moves, model.moves);
  }
  for (PageId p = 0; p < pt.num_pages(); ++p) {
    ASSERT_EQ(pt.page_tier(p), model.tier(p));
  }
}

}  // namespace
}  // namespace merch::hm
