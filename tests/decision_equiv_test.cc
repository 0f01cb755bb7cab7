// Bit-identity contract of the decision path against self-contained
// references.
//
// The flattened SoA forest and the lazy-deletion heap greedy are pure
// constant-factor changes: every prediction and every GreedyResult field
// must match its reference exactly, double for double. These tests check
// randomized trained ensembles (flat walk vs the pointer walk), and the
// heap against the per-round rescan of Algorithm 1 kept below, on
// randomized synthetic inputs and on every captured decision of the five
// applications. tests/sim_golden_test.cc pins the decisions themselves.
// They carry the "perf" ctest label (`ctest -L perf`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/greedy.h"
#include "core/merchandiser.h"
#include "ml/flat_forest.h"
#include "ml/forest.h"
#include "ml/gbr.h"
#include "sim/engine.h"
#include "workloads/training.h"

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

ml::Dataset RandomDataset(std::mt19937_64& rng, std::size_t rows,
                          std::size_t features) {
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  ml::Dataset data(features);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(features);
    for (double& v : x) v = u(rng);
    // A mildly nonlinear target so trees actually split on every feature.
    const double y = x[0] * x[0] - 2.0 * x[features / 2] + 0.25 * u(rng);
    data.Add(std::move(x), y);
  }
  return data;
}

// --- Flat forest vs pointer walk -------------------------------------------

/// PredictBatch (SoA flat forest) must be bitwise equal to the per-tree
/// pointer walk for randomized ensembles and rows, both one row at a time
/// and as a batch.
template <typename Model>
void CheckFlatAgainstScalar(Model& model, std::mt19937_64& rng,
                            std::size_t features) {
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  constexpr std::size_t kRows = 64;
  std::vector<double> rows(kRows * features);
  for (double& v : rows) v = u(rng);
  std::vector<double> batched(kRows);
  model.PredictBatch(rows, features, batched);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::span<const double> row(rows.data() + i * features, features);
    const double scalar = model.Predict(row);
    ASSERT_EQ(scalar, batched[i]) << "row " << i;
    double one = 0;
    model.PredictBatch(row, features, std::span<double>(&one, 1));
    ASSERT_EQ(scalar, one) << "row " << i;
  }
}

TEST(FlatForest, GbrBatchMatchesPointerWalkExactly) {
  std::mt19937_64 rng(11);
  for (const std::size_t features : {3u, 7u}) {
    ml::GbrConfig cfg;
    cfg.num_stages = 60;
    ml::GradientBoostedRegressor gbr(cfg, /*seed=*/rng());
    gbr.Fit(RandomDataset(rng, 300, features));
    CheckFlatAgainstScalar(gbr, rng, features);
  }
}

TEST(FlatForest, RfrBatchMatchesPointerWalkExactly) {
  std::mt19937_64 rng(13);
  for (const std::size_t features : {4u, 9u}) {
    ml::RandomForestRegressor rfr({}, /*seed=*/rng());
    rfr.Fit(RandomDataset(rng, 300, features));
    CheckFlatAgainstScalar(rfr, rng, features);
  }
}

/// The 4-lane walk's edge cases: a batch size that is not a multiple of
/// the lane width (the tail rows take the remainder path), NaN features
/// (x <= t is false, so the walk takes the right child — same as the
/// scalar comparison), and denormal features. The batch must be bitwise
/// equal to the per-row pointer walk.
TEST(FlatForest, LaneBoundaryNanAndDenormalRowsMatchScalar) {
  std::mt19937_64 rng(17);
  constexpr std::size_t kFeatures = 5;
  ml::GbrConfig cfg;
  cfg.num_stages = 40;
  ml::GradientBoostedRegressor gbr(cfg, /*seed=*/rng());
  gbr.Fit(RandomDataset(rng, 250, kFeatures));

  std::uniform_real_distribution<double> u(-4.0, 4.0);
  constexpr std::size_t kRows = 7;  // 4-lane block + 3-row tail
  std::vector<double> rows(kRows * kFeatures);
  for (double& v : rows) v = u(rng);
  rows[1 * kFeatures + 2] = std::numeric_limits<double>::quiet_NaN();
  rows[3 * kFeatures + 0] = std::numeric_limits<double>::denorm_min();
  rows[4 * kFeatures + 1] = -std::numeric_limits<double>::denorm_min();
  rows[6 * kFeatures + 4] = std::numeric_limits<double>::quiet_NaN();

  std::vector<double> batch(kRows);
  gbr.flat_forest().PredictBatch(rows, kFeatures, batch);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::span<const double> row(rows.data() + i * kFeatures, kFeatures);
    ASSERT_EQ(gbr.Predict(row), batch[i]) << "row " << i;
  }
}

// --- Heap greedy vs rescan -------------------------------------------------

std::uint64_t MapToPages(double r, const core::GreedyTaskInput& task) {
  if (task.pages_for_access_fraction.empty()) {
    // Paper's even-distribution assumption (Algorithm 1, line 18).
    return static_cast<std::uint64_t>(
        std::ceil(r * static_cast<double>(task.footprint_pages)));
  }
  // Piecewise-linear interpolation of the density-ordered cost curve.
  const auto& curve = task.pages_for_access_fraction;
  double prev_f = 0, prev_p = 0;
  for (const auto& [f, p] : curve) {
    if (r <= f) {
      const double t = f > prev_f ? (r - prev_f) / (f - prev_f) : 1.0;
      return static_cast<std::uint64_t>(std::ceil(prev_p + t * (p - prev_p)));
    }
    prev_f = f;
    prev_p = p;
  }
  return static_cast<std::uint64_t>(std::ceil(prev_p));
}

/// The original decision loop, the reference RunGreedyAllocation must
/// match bit for bit: per-round full rescans and one scalar model
/// evaluation per probe.
core::GreedyResult RunGreedyRescan(std::span<const core::GreedyTaskInput> tasks,
                                   std::uint64_t dram_capacity_pages,
                                   const core::PerformanceModel& model,
                                   core::GreedyConfig config) {
  const std::size_t n = tasks.size();
  core::GreedyResult result;
  result.dram_fraction.assign(n, 0.0);
  result.dram_pages.assign(n, 0);
  result.predicted_seconds.resize(n);
  if (n == 0) return result;

  // Lines 6-8: initialise allocations to zero, D' to the PM-only times.
  for (std::size_t i = 0; i < n; ++i) {
    result.predicted_seconds[i] = tasks[i].t_pm_only;
  }

  auto pages_used = [&]() {
    std::uint64_t sum = 0;
    for (const std::uint64_t p : result.dram_pages) sum += p;
    return sum;
  };

  for (int round = 0; round < config.max_rounds; ++round) {
    result.rounds = round + 1;

    // Line 10: longest task. Line 11: second-longest execution time.
    std::size_t longest = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (result.predicted_seconds[i] > result.predicted_seconds[longest]) {
        longest = i;
      }
    }
    double second = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != longest) second = std::max(second, result.predicted_seconds[i]);
    }
    if (n == 1) second = tasks[0].t_dram_only;  // single task: run to the bound

    if (result.dram_fraction[longest] >= 1.0 - 1e-9) {
      // The critical task is fully DRAM-resident; no placement decision can
      // shorten the makespan further.
      break;
    }

    // Lines 13-16: grow the longest task's DRAM accesses in `step`
    // increments until it is predicted to dip below the second-longest.
    double r = result.dram_fraction[longest];
    double predicted = result.predicted_seconds[longest];
    do {
      r = std::min(1.0, r + config.step);
      predicted = model.PredictHybrid(tasks[longest].t_pm_only,
                                      tasks[longest].t_dram_only,
                                      tasks[longest].pmcs, r);
    } while (predicted > second && r < 1.0 - 1e-9);

    // Lines 17-18: commit and map to a page budget.
    const std::uint64_t new_pages = MapToPages(r, tasks[longest]);

    // Line 19 (capacity guard): if this allocation overflows DRAM, claw the
    // increase back one step at a time until it fits, then stop.
    std::uint64_t others = pages_used() - result.dram_pages[longest];
    double fitted_r = r;
    std::uint64_t fitted_pages = new_pages;
    while (fitted_r > result.dram_fraction[longest] &&
           others + fitted_pages > dram_capacity_pages) {
      fitted_r = std::max(result.dram_fraction[longest], fitted_r - config.step);
      fitted_pages = MapToPages(fitted_r, tasks[longest]);
    }
    const bool capacity_hit = fitted_r < r - 1e-12;

    if (fitted_r <= result.dram_fraction[longest] + 1e-12 && capacity_hit) {
      break;  // no headroom at all
    }
    result.dram_fraction[longest] = fitted_r;
    result.dram_pages[longest] = fitted_pages;
    result.predicted_seconds[longest] = model.PredictHybrid(
        tasks[longest].t_pm_only, tasks[longest].t_dram_only,
        tasks[longest].pmcs, fitted_r);
    if (capacity_hit) break;

    bool all_full = true;
    for (const double rf : result.dram_fraction) {
      if (rf < 1.0 - 1e-9) {
        all_full = false;
        break;
      }
    }
    if (all_full) break;
  }
  return result;
}

void ExpectSameGreedy(const core::GreedyResult& a, const core::GreedyResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.dram_fraction.size(), b.dram_fraction.size());
  for (std::size_t i = 0; i < a.dram_fraction.size(); ++i) {
    EXPECT_EQ(a.dram_fraction[i], b.dram_fraction[i]) << "task " << i;
    EXPECT_EQ(a.dram_pages[i], b.dram_pages[i]) << "task " << i;
    EXPECT_EQ(a.predicted_seconds[i], b.predicted_seconds[i]) << "task " << i;
  }
  EXPECT_EQ(a.rounds, b.rounds);
}

const core::PerformanceModel& Model() {
  static const core::PerformanceModel kModel(&System().correlation());
  return kModel;
}

/// The heap and the reference rescan on the same inputs.
void ExpectHeapMatchesRescan(std::span<const core::GreedyTaskInput> tasks,
                             std::uint64_t capacity,
                             const std::string& label) {
  ExpectSameGreedy(core::RunGreedyAllocation(tasks, capacity, Model()),
                   RunGreedyRescan(tasks, capacity, Model(), {}), label);
}

TEST(GreedyEquivalence, RandomizedInputsMatchExactly) {
  std::mt19937_64 rng(0xA11CE);
  const auto samples = workloads::GenerateTrainingSamples({
      .num_regions = 4,
  });
  std::uniform_real_distribution<double> ud(0.0, 1.0);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng() % 14;
    std::vector<core::GreedyTaskInput> tasks(n);
    std::uint64_t footprint_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      core::GreedyTaskInput& t = tasks[i];
      t.task = static_cast<TaskId>(i);
      t.t_dram_only = 0.1 + 2.0 * ud(rng);
      t.t_pm_only = t.t_dram_only * (1.0 + 3.0 * ud(rng));
      t.pmcs = samples[rng() % samples.size()].pmcs;
      t.total_accesses = 1e6 * (0.5 + ud(rng));
      t.footprint_pages = 64 + rng() % 4096;
      footprint_total += t.footprint_pages;
      if (rng() % 2) {
        // Piecewise page-cost curve with increasing breakpoints.
        double f = 0, p = 0;
        while (f < 0.95) {
          f += 0.1 + 0.3 * ud(rng);
          p += static_cast<double>(t.footprint_pages) * (0.05 + 0.4 * ud(rng));
          t.pages_for_access_fraction.emplace_back(std::min(f, 1.0), p);
        }
      }
      // Duplicated predicted times exercise the heap's index tie-break
      // against the rescan's strict-> argmax.
      if (i > 0 && rng() % 4 == 0) {
        t.t_pm_only = tasks[i - 1].t_pm_only;
        t.t_dram_only = tasks[i - 1].t_dram_only;
        t.pmcs = tasks[i - 1].pmcs;
      }
    }
    // Sweep capacity from starved through roomy to hit the claw-back,
    // capacity-stop, and saturation exits.
    for (const double frac : {0.05, 0.35, 1.0, 2.5}) {
      const auto capacity = static_cast<std::uint64_t>(
          frac * static_cast<double>(footprint_total));
      ExpectHeapMatchesRescan(tasks, capacity,
                              "trial " + std::to_string(trial) +
                                  " capacity " + std::to_string(capacity));
    }
  }
}

// --- Full application decisions --------------------------------------------

std::vector<core::InstanceDecision> RunMerch(const apps::AppBundle& bundle) {
  const sim::MachineSpec machine = ScaledMachine();
  const auto policy = System().MakePolicy(bundle.workload, machine);
  sim::Engine engine(bundle.workload, machine, ScaledConfig(), policy.get());
  engine.Run();
  return policy->decisions();
}

class DecisionEquivalence : public ::testing::TestWithParam<std::string> {};

/// Every captured Algorithm 1 call of a full Merchandiser run must replay
/// to the identical GreedyResult under the heap and the rescan.
TEST_P(DecisionEquivalence, HeapRescanAndHatchesBitIdentical) {
  const apps::AppBundle bundle = apps::BuildApp(GetParam(), kScale, kScale / 4);
  const std::vector<core::InstanceDecision> baseline = RunMerch(bundle);
  ASSERT_FALSE(baseline.empty());
  std::size_t replayed = 0;
  for (const core::InstanceDecision& d : baseline) {
    if (d.greedy_inputs.empty()) continue;
    ExpectHeapMatchesRescan(d.greedy_inputs, d.dram_capacity_pages,
                            GetParam() + " region " + std::to_string(d.region));
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, DecisionEquivalence,
                         ::testing::ValuesIn(apps::AppNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace merch
