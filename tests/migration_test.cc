// Unit tests for the migration engine (hm/migration.h).
#include <gtest/gtest.h>

#include "hm/migration.h"

namespace merch::hm {
namespace {

HmSpec Spec(std::uint64_t dram_pages, std::uint64_t pm_pages) {
  HmSpec spec = HmSpec::PaperOptane();
  spec[Tier::kDram].capacity_bytes = dram_pages * 4096;
  spec[Tier::kPm].capacity_bytes = pm_pages * 4096;
  return spec;
}

TEST(MigrationEngine, MigrateHottestAccountsTraffic) {
  PageTable pt(Spec(8, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 10, Tier::kPm);
  ASSERT_TRUE(a);
  MigrationEngine engine(pt);
  EXPECT_EQ(engine.MigrateHottest(*a, 4, Tier::kDram), 4u);
  const MigrationStats stats = engine.TakeEpochStats();
  EXPECT_EQ(stats.pages_to_dram, 4u);
  EXPECT_EQ(stats.bytes_to_dram, 4u * 4096);
  EXPECT_EQ(stats.pages_to_pm, 0u);
}

TEST(MigrationEngine, EpochStatsResetButLifetimePersists) {
  PageTable pt(Spec(8, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 10, Tier::kPm);
  MigrationEngine engine(pt);
  engine.MigrateHottest(*a, 2, Tier::kDram);
  engine.TakeEpochStats();
  const MigrationStats epoch2 = engine.TakeEpochStats();
  EXPECT_EQ(epoch2.pages_to_dram, 0u);
  EXPECT_EQ(engine.lifetime_stats().pages_to_dram, 2u);
}

TEST(MigrationEngine, FailedCapacityCounted) {
  PageTable pt(Spec(4, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 10, Tier::kPm);
  MigrationEngine engine(pt);
  EXPECT_EQ(engine.MigrateHottest(*a, 10, Tier::kDram), 4u);
  EXPECT_EQ(engine.lifetime_stats().failed_capacity, 6u);
}

TEST(MigrationEngine, MigratePagesIndividual) {
  PageTable pt(Spec(8, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 10, Tier::kPm);
  ASSERT_TRUE(a);
  MigrationEngine engine(pt);
  const std::vector<PageId> pages = {3, 7, 9};
  EXPECT_EQ(engine.MigratePages(pages, Tier::kDram), 3u);
  EXPECT_EQ(pt.page_tier(3), Tier::kDram);
  EXPECT_EQ(pt.page_tier(4), Tier::kPm);
}

TEST(MigrationEngine, MigratePagesSkipsAlreadyResident) {
  PageTable pt(Spec(8, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  MigrationEngine engine(pt);
  const std::vector<PageId> pages = {0, 1};
  engine.MigratePages(pages, Tier::kDram);
  engine.TakeEpochStats();
  EXPECT_EQ(engine.MigratePages(pages, Tier::kDram), 0u);
  EXPECT_EQ(engine.TakeEpochStats().pages_to_dram, 0u);
}

TEST(MigrationEngine, DemoteColdestAccountsPmTraffic) {
  PageTable pt(Spec(8, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 8, Tier::kPm);
  MigrationEngine engine(pt);
  engine.MigrateHottest(*a, 6, Tier::kDram);
  engine.TakeEpochStats();
  EXPECT_EQ(engine.DemoteColdest(*a, 2), 2u);
  const MigrationStats stats = engine.TakeEpochStats();
  EXPECT_EQ(stats.pages_to_pm, 2u);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kDram), 4u);
}

TEST(MigrationEngine, MakeRoomNoopWhenSpaceExists) {
  PageTable pt(Spec(8, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 8, Tier::kPm);
  MigrationEngine engine(pt);
  engine.MigrateHottest(*a, 2, Tier::kDram);
  auto heat = [](PageId p) { return static_cast<double>(p); };
  EXPECT_EQ(engine.MakeRoomInDram(3, heat), 0u);  // 6 free pages already
}

TEST(MigrationEngine, MakeRoomEvictsColdestByHeat) {
  PageTable pt(Spec(4, 64), 4096);
  const auto a = pt.RegisterObject(4096 * 8, Tier::kPm);
  MigrationEngine engine(pt);
  engine.MigrateHottest(*a, 4, Tier::kDram);  // pages 0..3 on DRAM, full

  // Heat function says page 2 is coldest, page 0 hottest.
  auto heat = [](PageId p) { return p == 2 ? 0.0 : 10.0 + double(p); };
  EXPECT_EQ(engine.MakeRoomInDram(1, heat), 1u);
  EXPECT_EQ(pt.page_tier(2), Tier::kPm);
  EXPECT_EQ(pt.page_tier(0), Tier::kDram);
}

TEST(MigrationStats, Accumulate) {
  MigrationStats a{.pages_to_dram = 1, .bytes_to_dram = 4096};
  MigrationStats b{.pages_to_dram = 2, .bytes_to_dram = 8192,
                   .failed_capacity = 3};
  a += b;
  EXPECT_EQ(a.pages_to_dram, 3u);
  EXPECT_EQ(a.bytes_to_dram, 12288u);
  EXPECT_EQ(a.failed_capacity, 3u);
}

}  // namespace
}  // namespace merch::hm
