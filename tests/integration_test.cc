// System-level integration test: the Figure 4 shape on downscaled apps —
// Merchandiser must beat PM-only and at least match the generic
// baselines, while reducing task-time variance on apps with inherent
// imbalance (the paper's headline claims, at test scale). Every run is a
// service request ({app, policy, 1/64, 1/256, 281, 42}: 512 KiB pages,
// the built-in f) answered through PlacementService::PrepareApp and
// ::Simulate, the path the service and `merchctl run` take.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/merchandiser.h"
#include "service/model_artifact.h"
#include "service/placement_service.h"

namespace merch {
namespace {

using service::PlacementService;

constexpr double kScale = 1.0 / 64;

service::PlacementRequest Request(const std::string& app,
                                  const std::string& policy) {
  service::PlacementRequest req{app, policy, kScale, kScale / 4, 281, 42};
  EXPECT_EQ(service::CanonicalizeRequest(req), "");
  return req;
}

const core::MerchandiserSystem& System() {
  static const core::MerchandiserSystem* kSystem =
      new core::MerchandiserSystem(service::ObtainSystem(281));
  return *kSystem;
}

/// One preparation of `app`, then one Simulate per policy.
std::map<std::string, sim::SimResult> RunApp(
    const std::string& app, const std::vector<std::string>& policies) {
  const PlacementService::PreparedApp prepared =
      PlacementService::PrepareApp(Request(app, "pm"));
  EXPECT_EQ(prepared.error, "") << app;
  std::map<std::string, sim::SimResult> out;
  for (const std::string& policy : policies) {
    PlacementService::Simulation run =
        PlacementService::Simulate(prepared, Request(app, policy), &System());
    EXPECT_EQ(run.error, "") << app << "/" << policy;
    out[policy] = std::move(run.result);
  }
  return out;
}

TEST(Integration, SpGemmFigure4Shape) {
  auto r = RunApp("SpGEMM", {"pm", "mm", "mo", "merch"});
  const double merch = r["merch"].total_seconds;
  EXPECT_LT(merch, r["pm"].total_seconds);
  EXPECT_LT(merch, r["mo"].total_seconds * 1.1);
  EXPECT_LT(merch, r["mm"].total_seconds * 1.1);
}

TEST(Integration, DmrgFigure4And5Shape) {
  auto r = RunApp("DMRG", {"pm", "merch"});
  EXPECT_LT(r["merch"].total_seconds, r["pm"].total_seconds * 0.98);
  // Figure 5: Merchandiser reduces task-time variance.
  EXPECT_LT(r["merch"].AverageCoV(), r["pm"].AverageCoV());
}

TEST(Integration, BfsMerchandiserReducesImbalance) {
  auto r = RunApp("BFS", {"pm", "merch"});
  EXPECT_LT(r["merch"].total_seconds, r["pm"].total_seconds);
  EXPECT_LT(r["merch"].AverageCoV(), r["pm"].AverageCoV());
}

TEST(Integration, SpartaComparisonRuns) {
  const sim::SimResult r = RunApp("SpGEMM", {"sparta"})["sparta"];
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.migration.pages_to_dram, 0u);
}

TEST(Integration, WarpxPmComparisonRuns) {
  EXPECT_GT(RunApp("WarpX", {"warpx-pm"})["warpx-pm"].total_seconds, 0.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  EXPECT_DOUBLE_EQ(RunApp("DMRG", {"mo"})["mo"].total_seconds,
                   RunApp("DMRG", {"mo"})["mo"].total_seconds);
}

}  // namespace
}  // namespace merch
