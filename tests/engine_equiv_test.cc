// Bit-identity contract of the engine hot-path optimisations.
//
// The residency index, timing-base memoization, the SIMD cost lanes, and
// the index-backed eviction gather are pure constant-factor changes: every
// SimResult field must match the pre-index engine exactly, double for
// double. These tests run the full app/policy matrix across engine
// variants and compare results with operator== semantics (no tolerances),
// plus randomized brute-force checks of the page-table residency index
// itself. They carry the "perf" ctest label (`ctest -L perf`).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "common/env.h"
#include "core/merchandiser.h"
#include "hm/migration.h"
#include "hm/page_table.h"
#include "sim/engine.h"

namespace merch {
namespace {

constexpr double kScale = 1.0 / 64;

sim::MachineSpec ScaledMachine() {
  sim::MachineSpec m = sim::MachineSpec::Paper();
  m.hm[hm::Tier::kDram].capacity_bytes = static_cast<std::uint64_t>(
      static_cast<double>(m.hm[hm::Tier::kDram].capacity_bytes) * kScale);
  m.hm[hm::Tier::kPm].capacity_bytes = static_cast<std::uint64_t>(
      static_cast<double>(m.hm[hm::Tier::kPm].capacity_bytes) * kScale);
  return m;
}

sim::SimConfig ScaledConfig() {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.02;
  cfg.interval_seconds = 0.25;
  cfg.page_bytes = 512 * KiB;
  return cfg;
}

const core::MerchandiserSystem& System() {
  static const core::MerchandiserSystem* kSystem = [] {
    workloads::TrainingConfig cfg;
    cfg.num_regions = 12;
    cfg.placements_per_region = 4;
    return new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
  }();
  return *kSystem;
}

struct RunOutcome {
  sim::SimResult result;
  sim::EngineCounters counters;
};

/// One engine run with a fresh policy instance (policies are stateful).
RunOutcome RunOnce(const apps::AppBundle& bundle, const std::string& policy,
                   const sim::SimConfig& cfg) {
  const sim::MachineSpec machine = ScaledMachine();
  baselines::PmOnlyPolicy pm;
  baselines::MemoryModePolicy mm;
  baselines::MemoryOptimizerPolicy mo;
  std::unique_ptr<core::MerchandiserPolicy> merch;
  sim::PlacementPolicy* p = nullptr;
  if (policy == "pm") {
    p = &pm;
  } else if (policy == "mm") {
    p = &mm;
  } else if (policy == "mo") {
    p = &mo;
  } else {
    merch = System().MakePolicy(bundle.workload, machine);
    p = merch.get();
  }
  sim::Engine engine(bundle.workload, machine, cfg, p);
  RunOutcome out;
  out.result = engine.Run();
  out.counters = engine.counters();
  return out;
}

/// Exact (no-tolerance) equality over every SimResult field.
void ExpectIdentical(const sim::SimResult& a, const sim::SimResult& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.migration.pages_to_dram, b.migration.pages_to_dram);
  EXPECT_EQ(a.migration.pages_to_pm, b.migration.pages_to_pm);
  EXPECT_EQ(a.migration.bytes_to_dram, b.migration.bytes_to_dram);
  EXPECT_EQ(a.migration.bytes_to_pm, b.migration.bytes_to_pm);
  EXPECT_EQ(a.migration.failed_capacity, b.migration.failed_capacity);
  ASSERT_EQ(a.bandwidth.size(), b.bandwidth.size());
  for (std::size_t i = 0; i < a.bandwidth.size(); ++i) {
    EXPECT_EQ(a.bandwidth[i].t, b.bandwidth[i].t);
    EXPECT_EQ(a.bandwidth[i].dram_gbps, b.bandwidth[i].dram_gbps);
    EXPECT_EQ(a.bandwidth[i].pm_gbps, b.bandwidth[i].pm_gbps);
    EXPECT_EQ(a.bandwidth[i].migration_gbps, b.bandwidth[i].migration_gbps);
  }
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    const sim::RegionStats& ra = a.regions[r];
    const sim::RegionStats& rb = b.regions[r];
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_EQ(ra.start_time, rb.start_time);
    EXPECT_EQ(ra.duration, rb.duration);
    ASSERT_EQ(ra.tasks.size(), rb.tasks.size());
    for (std::size_t t = 0; t < ra.tasks.size(); ++t) {
      const sim::TaskStats& ta = ra.tasks[t];
      const sim::TaskStats& tb = rb.tasks[t];
      EXPECT_EQ(ta.task, tb.task);
      EXPECT_EQ(ta.exec_seconds, tb.exec_seconds);
      EXPECT_EQ(ta.barrier_wait, tb.barrier_wait);
      EXPECT_EQ(ta.agg.instructions, tb.agg.instructions);
      EXPECT_EQ(ta.agg.program_accesses, tb.agg.program_accesses);
      EXPECT_EQ(ta.agg.mm_accesses, tb.agg.mm_accesses);
      EXPECT_EQ(ta.agg.l2_misses, tb.agg.l2_misses);
      EXPECT_EQ(ta.agg.compute_seconds, tb.agg.compute_seconds);
      EXPECT_EQ(ta.agg.memory_seconds, tb.agg.memory_seconds);
      EXPECT_EQ(ta.pmcs, tb.pmcs);
      EXPECT_EQ(ta.object_program_accesses, tb.object_program_accesses);
      EXPECT_EQ(ta.object_mm_accesses, tb.object_mm_accesses);
      EXPECT_EQ(ta.kernel_seconds, tb.kernel_seconds);
    }
  }
}

// --- Engine variants -------------------------------------------------------

class EngineEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalence, VariantsBitIdentical) {
  const std::string app = GetParam();
  const apps::AppBundle bundle = apps::BuildApp(app, kScale, kScale / 4);
  for (const std::string policy : {"pm", "mm", "mo", "merch"}) {
    const RunOutcome baseline = RunOnce(bundle, policy, ScaledConfig());

    sim::SimConfig no_index = ScaledConfig();
    no_index.sweep_index = false;
    ExpectIdentical(baseline.result, RunOnce(bundle, policy, no_index).result,
                    app + "/" + policy + " sweep_index=off");

    sim::SimConfig no_memo = ScaledConfig();
    no_memo.timing_memo = false;
    const RunOutcome plain = RunOnce(bundle, policy, no_memo);
    ExpectIdentical(baseline.result, plain.result,
                    app + "/" + policy + " timing_memo=off");
    // Without memoization every timing evaluation rebuilds its base; with
    // it the rebuilds are the small invalidated fraction.
    EXPECT_EQ(plain.counters.base_builds, plain.counters.timing_evals);
    EXPECT_LT(baseline.counters.base_builds, baseline.counters.timing_evals);

    // Index and memo on, lanes off: the scalar KernelBase::costs builder.
    sim::SimConfig scalar = ScaledConfig();
    scalar.simd = false;
    ExpectIdentical(baseline.result, RunOnce(bundle, policy, scalar).result,
                    app + "/" + policy + " simd=off");
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineEquivalence,
                         ::testing::ValuesIn(apps::AppNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(EngineEquivalence, EnvEscapeHatchesDisableBothPaths) {
  const apps::AppBundle bundle = apps::BuildApp("SpGEMM", kScale, kScale / 4);
  const RunOutcome baseline = RunOnce(bundle, "mo", ScaledConfig());
  setenv("MERCH_SWEEP_INDEX", "0", 1);
  setenv("MERCH_ENGINE_MEMO", "0", 1);
  const RunOutcome legacy = RunOnce(bundle, "mo", ScaledConfig());
  unsetenv("MERCH_SWEEP_INDEX");
  unsetenv("MERCH_ENGINE_MEMO");
  ExpectIdentical(baseline.result, legacy.result, "env hatches");
  // The hatches took effect: every evaluation was a full build.
  EXPECT_EQ(legacy.counters.base_builds, legacy.counters.timing_evals);
  EXPECT_LT(baseline.counters.base_builds, baseline.counters.timing_evals);

  // MERCH_SIMD is resolved at each Engine construction too. Only the lane
  // path refreshes sweep lanes in place, so the scalar builder does none.
  // Under an outer MERCH_SIMD=0 the baseline is scalar as well, and the
  // variable stays set for the tests that follow.
  const bool baseline_lanes = common::EnvToggle("MERCH_SIMD", true);
  setenv("MERCH_SIMD", "0", 1);
  const RunOutcome scalar = RunOnce(bundle, "mo", ScaledConfig());
  if (baseline_lanes) unsetenv("MERCH_SIMD");
  ExpectIdentical(baseline.result, scalar.result, "MERCH_SIMD=0");
  EXPECT_EQ(scalar.counters.partial_refreshes, 0u);
  if (baseline_lanes) {
    EXPECT_GT(baseline.counters.partial_refreshes, 0u);
  }
}

// --- Residency index vs brute force ----------------------------------------

hm::HmSpec TinySpec() {
  hm::HmSpec spec = hm::HmSpec::PaperOptane();
  spec[hm::Tier::kDram].capacity_bytes = 96 * 4096;
  spec[hm::Tier::kPm].capacity_bytes = 512 * 4096;
  return spec;
}

/// The move listener is the ground truth: whatever the table reports
/// moved is mirrored into a flat tier array, and every index query must
/// agree with a linear scan of that array.
struct BruteMirror {
  std::vector<hm::Tier> tier;
  void Attach(hm::PageTable& pt) {
    pt.SetMoveListener([this](PageId p, hm::Tier, hm::Tier to) {
      tier[p] = to;
    });
  }
};

TEST(ResidencyIndex, RandomOpsMatchBruteForce) {
  std::mt19937_64 rng(0xC0FFEE);
  hm::PageTable pt(TinySpec(), 4096);
  std::vector<ObjectId> objects;
  for (const std::uint64_t pages : {37u, 5u, 64u, 3u, 129u, 18u, 1u, 70u}) {
    const auto id = pt.RegisterObject(pages * 4096,
                                      pages % 2 ? hm::Tier::kDram
                                                : hm::Tier::kPm);
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
    const hm::ObjectExtent& e = pt.extent(*obj);
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        pt.MovePage(e.first_page + rng() % e.num_pages,
                    rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm);
        break;
      case 3:
      case 4:
        pt.MoveHottest(*obj, rng() % 12,
                       rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm);
        break;
      case 5:
      case 6:
        pt.EvictColdest(*obj, rng() % 12,
                        rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm);
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
    const hm::ObjectExtent& pe = pt.extent(probe);
    const std::uint64_t rank = rng() % pe.num_pages;
    EXPECT_EQ(pt.page_rank_on_dram(probe, rank),
              brute.tier[pe.first_page + rank] == hm::Tier::kDram);
    std::uint64_t r0 = rng() % (pe.num_pages + 1);
    std::uint64_t r1 = rng() % (pe.num_pages + 1);
    if (r0 > r1) std::swap(r0, r1);
    std::uint64_t expect = 0;
    for (std::uint64_t r = r0; r < r1; ++r) {
      if (brute.tier[pe.first_page + r] == hm::Tier::kDram) ++expect;
    }
    ASSERT_EQ(pt.dram_pages_in_rank_range(probe, r0, r1), expect);
    if (pt.is_live(probe)) {
      std::uint64_t on_dram = 0;
      for (std::uint64_t r = 0; r < pe.num_pages; ++r) {
        if (brute.tier[pe.first_page + r] == hm::Tier::kDram) ++on_dram;
      }
      ASSERT_EQ(pt.object_pages_on(probe, hm::Tier::kDram), on_dram);
      // FindRank / FindRankBefore agree with linear scans.
      const bool want_dram = rng() % 2;
      const std::uint64_t start = rng() % pe.num_pages;
      std::uint64_t first = pe.num_pages;
      for (std::uint64_t r = start; r < pe.num_pages; ++r) {
        if ((brute.tier[pe.first_page + r] == hm::Tier::kDram) == want_dram) {
          first = r;
          break;
        }
      }
      EXPECT_EQ(pt.FindRank(probe, start, want_dram), first);
      const std::uint64_t end = rng() % (pe.num_pages + 1);
      std::uint64_t last = pe.num_pages;
      for (std::uint64_t r = end; r > 0; --r) {
        if ((brute.tier[pe.first_page + r - 1] == hm::Tier::kDram) ==
            want_dram) {
          last = r - 1;
          break;
        }
      }
      EXPECT_EQ(pt.FindRankBefore(probe, end, want_dram), last);
    } else {
      EXPECT_EQ(pt.object_pages_on(probe, hm::Tier::kDram), 0u);
    }
    const PageId page = rng() % pt.num_pages();
    const auto owner = pt.ObjectOfPage(page);
    std::optional<ObjectId> expect_owner;
    for (const ObjectId id : objects) {
      const hm::ObjectExtent& oe = pt.extent(id);
      if (pt.is_live(id) && page >= oe.first_page &&
          page < oe.first_page + oe.num_pages) {
        expect_owner = id;
      }
    }
    ASSERT_EQ(owner, expect_owner);
  }
  EXPECT_EQ(releases, 2);
}

/// legacy_scan routes lookups and bulk moves through the pre-index linear
/// scans; the same operation sequence must produce the identical move
/// stream (same pages, same order) on both configurations.
TEST(ResidencyIndex, LegacyScanIsBitIdentical) {
  hm::PageTable fast(TinySpec(), 4096);
  hm::PageTable legacy(TinySpec(), 4096);
  legacy.set_legacy_scan(true);
  std::vector<std::pair<PageId, hm::Tier>> fast_moves, legacy_moves;
  fast.SetMoveListener(
      [&](PageId p, hm::Tier, hm::Tier to) { fast_moves.emplace_back(p, to); });
  legacy.SetMoveListener([&](PageId p, hm::Tier, hm::Tier to) {
    legacy_moves.emplace_back(p, to);
  });
  for (hm::PageTable* pt : {&fast, &legacy}) {
    for (const std::uint64_t pages : {23u, 64u, 7u, 130u, 41u}) {
      ASSERT_TRUE(pt->RegisterObject(pages * 4096,
                                     pages % 2 ? hm::Tier::kDram
                                               : hm::Tier::kPm));
    }
  }
  hm::MigrationEngine fast_mig(fast);
  hm::MigrationEngine legacy_mig(legacy);
  // Deterministic synthetic heat: hash of the page id.
  const auto heat = [](PageId p) {
    return static_cast<double>((p * 2654435761u) % 97);
  };
  std::mt19937_64 rng(7);
  for (int op = 0; op < 600; ++op) {
    const ObjectId obj = rng() % fast.num_objects();
    const std::uint64_t k = rng() % 9;
    const hm::Tier t = rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm;
    switch (rng() % 4) {
      case 0:
        ASSERT_EQ(fast.MoveHottest(obj, k, t), legacy.MoveHottest(obj, k, t));
        break;
      case 1:
        ASSERT_EQ(fast.EvictColdest(obj, k, t),
                  legacy.EvictColdest(obj, k, t));
        break;
      case 2: {
        const PageId p = rng() % fast.num_pages();
        ASSERT_EQ(fast.MovePage(p, t), legacy.MovePage(p, t));
        ASSERT_EQ(fast.ObjectOfPage(p), legacy.ObjectOfPage(p));
        break;
      }
      default:
        // The index-backed gather + nth_element selection must evict the
        // same pages in the same order as the legacy full sort.
        ASSERT_EQ(fast_mig.MakeRoomInDram(k * 3, heat),
                  legacy_mig.MakeRoomInDram(k * 3, heat));
        break;
    }
    ASSERT_EQ(fast_moves, legacy_moves);
  }
  for (PageId p = 0; p < fast.num_pages(); ++p) {
    ASSERT_EQ(fast.page_tier(p), legacy.page_tier(p));
  }
}

}  // namespace
}  // namespace merch
