// Tests for the analytic access oracle (sim/oracle.h), including sweep
// windows and the batched per-page counts the PTE-scan sampler and the
// eviction gather read.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hm/page_table.h"
#include "sim/oracle.h"

namespace merch::sim {
namespace {

Workload TwoObjectWorkload() {
  Workload w;
  w.name = "test";
  w.objects.push_back(ObjectDecl{.name = "uniform", .bytes = 10 * 4096,
                                 .owner = 0,
                                 .heat = trace::HeatProfile::Uniform()});
  w.objects.push_back(ObjectDecl{.name = "zipf", .bytes = 20 * 4096,
                                 .owner = 1,
                                 .heat = trace::HeatProfile::Zipf(1.0)});
  Region r;
  r.name = "r";
  r.tasks.push_back(TaskProgram{.task = 0, .kernels = {}});
  r.tasks.push_back(TaskProgram{.task = 1, .kernels = {}});
  w.regions.push_back(r);
  return w;
}

class OracleTest : public ::testing::Test {
 protected:
  OracleTest()
      : workload_(TwoObjectWorkload()),
        pages_([] {
          hm::HmSpec spec = hm::HmSpec::PaperOptane();
          spec[hm::Tier::kDram].capacity_bytes = 16 * 4096;
          spec[hm::Tier::kPm].capacity_bytes = 64 * 4096;
          return spec;
        }(), 4096) {
    handles_.push_back(*pages_.RegisterObject(10 * 4096, hm::Tier::kPm, 0));
    handles_.push_back(*pages_.RegisterObject(20 * 4096, hm::Tier::kPm, 1));
    oracle_ = std::make_unique<AccessOracle>(workload_, pages_, handles_);
  }

  Workload workload_;
  hm::PageTable pages_;
  std::vector<ObjectId> handles_;
  std::unique_ptr<AccessOracle> oracle_;
};

TEST_F(OracleTest, StaticAddAccumulates) {
  oracle_->Add(0, 0, 100);
  oracle_->Add(0, 0, 50);
  EXPECT_DOUBLE_EQ(oracle_->ObjectEpochAccesses(0), 150.0);
  EXPECT_DOUBLE_EQ(oracle_->TaskEpochAccesses(0), 150.0);
  EXPECT_DOUBLE_EQ(oracle_->TaskObjectEpochAccesses(0, 0), 150.0);
  EXPECT_DOUBLE_EQ(oracle_->TotalEpochAccesses(), 150.0);
}

TEST_F(OracleTest, StaticHeatDistribution) {
  oracle_->Add(0, 0, 1000);  // uniform over 10 pages
  EXPECT_DOUBLE_EQ(oracle_->EpochAccesses(0), 100.0);
  EXPECT_DOUBLE_EQ(oracle_->EpochAccesses(9), 100.0);
  oracle_->Add(1, 1, 1000);  // zipf over pages 10..29
  EXPECT_GT(oracle_->EpochAccesses(10), oracle_->EpochAccesses(29));
}

TEST_F(OracleTest, SweepWindowLandsOnRankRange) {
  // Sweep covering the first half of object 0 (ranks [0, 0.5)).
  oracle_->AddSweep(0, 0, 0.0, 0.5, 500);
  // 5 pages in the window, 100 each; pages beyond get nothing.
  EXPECT_NEAR(oracle_->EpochAccesses(0), 100.0, 1e-9);
  EXPECT_NEAR(oracle_->EpochAccesses(4), 100.0, 1e-9);
  EXPECT_NEAR(oracle_->EpochAccesses(5), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(oracle_->ObjectEpochAccesses(0), 500.0);
}

TEST_F(OracleTest, ContiguousSweepsMerge) {
  oracle_->AddSweep(0, 0, 0.0, 0.25, 100);
  oracle_->AddSweep(0, 0, 0.25, 0.5, 100);
  // Merged window [0, 0.5) with 200 accesses -> 40 per page over 5 pages.
  EXPECT_NEAR(oracle_->EpochAccesses(2), 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(oracle_->ObjectEpochAccesses(0), 200.0);
}

TEST_F(OracleTest, SweepAttributesToTask) {
  oracle_->AddSweep(1, 1, 0.0, 1.0, 700);
  EXPECT_DOUBLE_EQ(oracle_->TaskEpochAccesses(1), 700.0);
  EXPECT_DOUBLE_EQ(oracle_->TaskObjectEpochAccesses(1, 1), 700.0);
}

TEST_F(OracleTest, ResetClearsEpochKeepsLifetime) {
  oracle_->Add(0, 0, 100);
  oracle_->AddSweep(1, 1, 0.0, 1.0, 200);
  oracle_->ResetEpoch();
  EXPECT_DOUBLE_EQ(oracle_->TotalEpochAccesses(), 0.0);
  EXPECT_DOUBLE_EQ(oracle_->EpochAccesses(0), 0.0);
  EXPECT_DOUBLE_EQ(oracle_->ObjectLifetimeAccesses(0), 100.0);
  EXPECT_DOUBLE_EQ(oracle_->ObjectLifetimeAccesses(1), 200.0);
}

TEST_F(OracleTest, PageMetadata) {
  EXPECT_EQ(oracle_->num_pages(), 30u);
  EXPECT_EQ(oracle_->PageObject(5), 0u);
  EXPECT_EQ(oracle_->PageObject(15), 1u);
  EXPECT_EQ(oracle_->PageTask(5), 0u);
  EXPECT_EQ(oracle_->PageTask(15), 1u);
  EXPECT_EQ(oracle_->PageTier(5), hm::Tier::kPm);
  pages_.MovePage(5, hm::Tier::kDram);
  EXPECT_EQ(oracle_->PageTier(5), hm::Tier::kDram);
}

TEST_F(OracleTest, HandleLookup) {
  EXPECT_EQ(oracle_->handle(0), handles_[0]);
  EXPECT_EQ(oracle_->handle(1), handles_[1]);
}

// --- EpochAccessesBatch against the scalar EpochAccesses -------------------

/// Six objects, one per case the batch screens or hoists differently:
/// static uniform, static Zipf, idle, swept only (window edges on and off
/// page boundaries), static Zipf plus a sweep, and a released object. A
/// scratch object the oracle does not track follows them.
class OracleBatchTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPagesPerObject = 16;

  OracleBatchTest() : pages_(Spec(), 4096) {
    const trace::HeatProfile heats[] = {
        trace::HeatProfile::Uniform(), trace::HeatProfile::Zipf(1.0),
        trace::HeatProfile::Zipf(0.8), trace::HeatProfile::Uniform(),
        trace::HeatProfile::Zipf(1.2), trace::HeatProfile::Uniform()};
    workload_.name = "batch";
    Region r;
    r.name = "r";
    r.tasks.push_back(TaskProgram{.task = 0, .kernels = {}});
    workload_.regions.push_back(r);
    for (const trace::HeatProfile& heat : heats) {
      workload_.objects.push_back(
          ObjectDecl{.name = "o" + std::to_string(handles_.size()),
                     .bytes = kPagesPerObject * 4096,
                     .owner = 0,
                     .heat = heat});
      handles_.push_back(
          *pages_.RegisterObject(kPagesPerObject * 4096, hm::Tier::kPm, 0));
    }
    EXPECT_TRUE(pages_.RegisterObject(4 * 4096, hm::Tier::kPm).has_value());
    oracle_ = std::make_unique<AccessOracle>(workload_, pages_, handles_);
    oracle_->Add(0, 0, 1000);
    oracle_->Add(1, 0, 777.7);
    // Object 2 stays idle.
    oracle_->AddSweep(3, 0, 0.25, 0.5, 400);   // edges on pages 4 and 8
    oracle_->AddSweep(3, 0, 0.6, 0.83, 90.5);  // edges inside pages
    oracle_->Add(4, 0, 321.0);
    oracle_->AddSweep(4, 0, 0.1, 0.7, 55.5);
    oracle_->Add(5, 0, 500);
    pages_.ReleaseObject(handles_[5]);
  }

  static hm::HmSpec Spec() {
    hm::HmSpec spec = hm::HmSpec::PaperOptane();
    spec[hm::Tier::kDram].capacity_bytes = 16 * 4096;
    spec[hm::Tier::kPm].capacity_bytes = 256 * 4096;
    return spec;
  }

  /// Every batch value is the scalar value, bit for bit.
  void ExpectBatchMatchesScalar(const std::vector<PageId>& pages) const {
    std::vector<double> batch(pages.size(), -1.0);
    oracle_->EpochAccessesBatch(pages, batch);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const double scalar = oracle_->EpochAccesses(pages[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                std::bit_cast<std::uint64_t>(scalar))
          << "page " << pages[i] << " at " << i << ": batch " << batch[i]
          << ", scalar " << scalar;
    }
  }

  Workload workload_;
  hm::PageTable pages_;
  std::vector<ObjectId> handles_;
  std::unique_ptr<AccessOracle> oracle_;
};

TEST_F(OracleBatchTest, FixtureCoversEveryCase) {
  const PageId o3 = pages_.extent(handles_[3]).first_page;
  EXPECT_GT(oracle_->EpochAccesses(pages_.extent(handles_[1]).first_page), 0);
  EXPECT_EQ(oracle_->EpochAccesses(pages_.extent(handles_[2]).first_page), 0);
  EXPECT_EQ(oracle_->EpochAccesses(o3 + 3), 0);    // before the window
  EXPECT_GT(oracle_->EpochAccesses(o3 + 4), 0);    // first page inside
  EXPECT_EQ(oracle_->EpochAccesses(o3 + 8), 0);    // first page after
  EXPECT_GT(oracle_->EpochAccesses(o3 + 13), 0);   // straddles 0.83
  EXPECT_EQ(oracle_->EpochAccesses(pages_.extent(handles_[5]).first_page),
            0);  // released
}

TEST_F(OracleBatchTest, RandomSamplesMatchScalarCalls) {
  // Shaped like the PTE-scan sampler's draws: uniform page ids, in draw
  // order, plus ids past the table's end.
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    std::vector<PageId> sample;
    for (int k = 0; k < 512; ++k) {
      sample.push_back(rng.NextBelow(pages_.num_pages() + 3));
    }
    ExpectBatchMatchesScalar(sample);
  }
}

TEST_F(OracleBatchTest, AscendingObjectRunsMatchScalarCalls) {
  // Shaped like the eviction gather: each object's pages ascending, whole
  // and strided, one batch per object and all objects in one batch.
  std::vector<PageId> all;
  for (ObjectId id = 0; id < pages_.num_objects(); ++id) {
    const hm::ObjectExtent& e = pages_.extent(id);
    for (const std::uint64_t stride : {1u, 3u}) {
      std::vector<PageId> run;
      for (std::uint64_t r = 0; r < e.num_pages; r += stride) {
        run.push_back(e.first_page + r);
      }
      ExpectBatchMatchesScalar(run);
      all.insert(all.end(), run.begin(), run.end());
    }
  }
  ExpectBatchMatchesScalar(all);
}

}  // namespace
}  // namespace merch::sim
