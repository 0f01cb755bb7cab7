// Checked-in simulation digests: FNV-1a 64 hashes of what the engine and
// the decision path produce, so a change that moves a single bit of a
// simulation fails here and names the run and the section.
//
// Two sets of runs:
//   S — the service path production runs: PlacementService::PrepareApp
//       and PlacementService::Simulate, with the prepared DRAM capacity
//       scaled by a quota. Five apps × every policy the app defines
//       (merch with the built-in 281-region f and with an 8-region f) ×
//       (scale, work) in {(0.05, 0.05), (0.02, 0.03)} × DRAM quota in
//       {1, 0.5, 0.25}.
//   E — the engine matrix: BuildApp(app, 1/64, 1/256) on a 1/64 machine
//       with 512 KiB pages and a 12×4-region f, × {pm, mm, mo, merch}.
//       These runs also check that memoized timing bases serve most
//       timing evaluations and that sweep-only refreshes happen only where
//       a sweep reads an object with pages on both tiers (never for pm or
//       mm, some for SpGEMM/mo).
// Each run has a "result" digest (every SimResult field), a "placements"
// digest (ObjectDramFraction per object at the end) and, for merch, a
// "decisions" digest (each InstanceDecision's tasks, r_i, Eq. 2
// predictions, T_pm/T_dram bounds, Eq. 1 totals and rounds).
// Label `golden` (`ctest -L golden`).
//
// The rows live in sim_golden.json. A failure names the run and its first
// differing section, then prints the run's current row. Paste it over the
// checked-in row only for a declared output change; a speed-up must pass
// unchanged.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "core/merchandiser.h"
#include "golden.h"
#include "obs/json.h"
#include "service/model_artifact.h"
#include "service/placement_service.h"
#include "sim/engine.h"

namespace merch {
namespace {

using golden::DigestOf;
using golden::Fnv1a;
using golden::Sections;

const std::vector<golden::Row>& Corpus() {
  static const std::vector<golden::Row> kRows = [] {
    std::ifstream in(SIM_GOLDEN_JSON);
    std::stringstream text;
    text << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    std::vector<golden::Row> rows;
    if (!obs::ParseJson(text.str(), &doc, &error)) {
      ADD_FAILURE() << SIM_GOLDEN_JSON << ": " << error;
      return rows;
    }
    const obs::JsonValue* runs = doc.Find("runs");
    if (runs == nullptr || !runs->is_array()) {
      ADD_FAILURE() << SIM_GOLDEN_JSON << ": no \"runs\" array";
      return rows;
    }
    for (const obs::JsonValue& run : runs->items) {
      const obs::JsonValue* name = run.Find("run");
      if (name == nullptr || !name->is_string()) continue;
      for (const auto& [section, digest] : run.fields) {
        if (section == "run" || !digest.is_string()) continue;
        rows.push_back({name->str, section,
                        std::stoull(digest.str, nullptr, 16)});
      }
    }
    return rows;
  }();
  return kRows;
}

std::uint64_t ResultDigest(const sim::SimResult& r) {
  Fnv1a h;
  h.Add(r.policy);
  h.Add(r.workload);
  h.Add(r.total_seconds);
  h.Add(r.migration.pages_to_dram);
  h.Add(r.migration.pages_to_pm);
  h.Add(r.migration.bytes_to_dram);
  h.Add(r.migration.bytes_to_pm);
  h.Add(r.migration.failed_capacity);
  h.Add(static_cast<std::uint64_t>(r.bandwidth.size()));
  for (const sim::BandwidthSample& s : r.bandwidth) {
    h.Add(s.t);
    h.Add(s.dram_gbps);
    h.Add(s.pm_gbps);
    h.Add(s.migration_gbps);
  }
  h.Add(static_cast<std::uint64_t>(r.regions.size()));
  for (const sim::RegionStats& region : r.regions) {
    h.Add(region.name);
    h.Add(region.start_time);
    h.Add(region.duration);
    h.Add(static_cast<std::uint64_t>(region.tasks.size()));
    for (const sim::TaskStats& t : region.tasks) {
      h.Add(static_cast<std::uint64_t>(t.task));
      h.Add(t.exec_seconds);
      h.Add(t.barrier_wait);
      const sim::TaskAggregates& a = t.agg;
      h.Add(a.instructions);
      for (const double v :
           {a.program_accesses, a.mm_accesses, a.l2_misses,
            a.prefetch_miss_weighted, a.overlap_weighted,
            a.branch_instructions, a.vector_instructions, a.exec_seconds,
            a.compute_seconds, a.memory_seconds, a.core_ghz}) {
        h.Add(v);
      }
      h.AddAll(t.pmcs);
      h.AddAll(t.object_program_accesses);
      h.AddAll(t.object_mm_accesses);
      h.AddAll(t.kernel_seconds);
    }
  }
  return h.value();
}

std::uint64_t DecisionDigest(const std::vector<core::InstanceDecision>& ds) {
  Fnv1a h;
  h.Add(static_cast<std::uint64_t>(ds.size()));
  for (const core::InstanceDecision& d : ds) {
    h.Add(static_cast<std::uint64_t>(d.region));
    h.AddAll(d.tasks);
    h.AddAll(d.dram_fraction);
    h.AddAll(d.predicted_seconds);
    h.AddAll(d.t_pm_only);
    h.AddAll(d.t_dram_only);
    h.AddAll(d.estimated_accesses);
    h.Add(static_cast<std::uint64_t>(d.greedy_rounds));
  }
  return h.value();
}

/// Digests what one run produced: its result, each object's final DRAM
/// fraction and, for merch, its decisions.
Sections DigestRun(const sim::SimResult& result,
                   const std::vector<double>& placements,
                   const sim::PlacementPolicy* policy) {
  Sections got = {{"result", ResultDigest(result)},
                  {"placements", DigestOf(placements)}};
  if (const auto* merch =
          dynamic_cast<const core::MerchandiserPolicy*>(policy)) {
    got.emplace_back("decisions", DecisionDigest(merch->decisions()));
  }
  return got;
}

/// Compares one run with its checked-in row. On a difference, names the
/// first differing section and prints the run's current row.
void ExpectGolden(const std::string& run, const Sections& got) {
  const std::string first_diff =
      golden::FirstDifference(Corpus(), run, got);
  if (first_diff.empty()) return;
  std::string row = "    {\"run\": \"" + run + "\"";
  for (const auto& [section, digest] : got) {
    char field[96];
    std::snprintf(field, sizeof field, ", \"%s\": \"0x%016llx\"",
                  section.c_str(), static_cast<unsigned long long>(digest));
    row += field;
  }
  ADD_FAILURE() << run << ": first differing section '" << first_diff
                << "'. Current row:\n"
                << row << "},\n";
}

/// Every checked-in run under `prefix` must have been computed.
void ExpectNoStaleRows(const std::string& prefix,
                       const std::set<std::string>& computed) {
  for (const golden::Row& r : Corpus()) {
    if (r.subject.rfind(prefix, 0) == 0 && !computed.count(r.subject)) {
      ADD_FAILURE() << r.subject << ": checked in but no longer computed";
    }
  }
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string TestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// --- Set S: the service path -----------------------------------------------

/// The built-in f (281 regions, decoded) and an 8-region training.
const core::MerchandiserSystem& ServiceSystem(std::size_t train_regions) {
  static const core::MerchandiserSystem* kBuiltin =
      new core::MerchandiserSystem(service::ObtainSystem(281));
  static const core::MerchandiserSystem* kSmall =
      new core::MerchandiserSystem(service::ObtainSystem(8));
  return train_regions == 281 ? *kBuiltin : *kSmall;
}

class ServicePathGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ServicePathGolden, MatchesCorpus) {
  using service::PlacementService;
  const std::string app = GetParam();
  std::set<std::string> computed;
  const std::pair<double, double> points[] = {{0.05, 0.05}, {0.02, 0.03}};
  for (const auto& [scale, work] : points) {
    service::PlacementRequest req;
    req.app = app;
    req.scale = scale;
    req.work = work;
    ASSERT_EQ(service::CanonicalizeRequest(req), "");
    PlacementService::PreparedApp prepared = PlacementService::PrepareApp(req);
    ASSERT_EQ(prepared.error, "");
    const std::uint64_t dram =
        prepared.machine.hm[hm::Tier::kDram].capacity_bytes;
    for (const double quota : {1.0, 0.5, 0.25}) {
      prepared.machine.hm[hm::Tier::kDram].capacity_bytes =
          static_cast<std::uint64_t>(static_cast<double>(dram) * quota);
      for (const std::string& policy : service::PolicyNames()) {
        req.policy = policy;
        for (const std::size_t regions : {281u, 8u}) {
          if (policy != "merch" && regions == 8) continue;
          const std::string run =
              "S/" + app + "/s" + Fmt(scale) + "-w" + Fmt(work) + "/q" +
              Fmt(quota) + "/" + policy +
              (policy == "merch" ? "-f" + std::to_string(regions) : "");
          const PlacementService::Simulation sim =
              PlacementService::Simulate(prepared, req,
                                         &ServiceSystem(regions));
          if (!sim.error.empty()) {
            // sparta and warpx-pm exist only for apps with a priority list.
            EXPECT_NE(sim.error.find("is not defined for app"),
                      std::string::npos)
                << run << ": " << sim.error;
            continue;
          }
          ExpectGolden(run, DigestRun(sim.result, sim.dram_fractions,
                                      sim.policy.get()));
          computed.insert(run);
        }
      }
    }
  }
  ExpectNoStaleRows("S/" + app + "/", computed);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ServicePathGolden,
                         ::testing::ValuesIn(apps::AppNames()), TestName);

// --- Set E: the engine matrix ----------------------------------------------

constexpr double kScale = 1.0 / 64;

sim::MachineSpec ScaledMachine() {
  sim::MachineSpec m = sim::MachineSpec::Paper();
  for (const hm::Tier tier : {hm::Tier::kDram, hm::Tier::kPm}) {
    m.hm[tier].capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(m.hm[tier].capacity_bytes) * kScale);
  }
  return m;
}

sim::SimConfig ScaledConfig() {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.02;
  cfg.interval_seconds = 0.25;
  cfg.page_bytes = 512 * KiB;
  return cfg;
}

const core::MerchandiserSystem& MatrixSystem() {
  static const core::MerchandiserSystem* kSystem = [] {
    workloads::TrainingConfig cfg;
    cfg.num_regions = 12;
    cfg.placements_per_region = 4;
    return new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
  }();
  return *kSystem;
}

class EngineMatrixGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineMatrixGolden, MatchesCorpus) {
  const std::string app = GetParam();
  const apps::AppBundle bundle = apps::BuildApp(app, kScale, kScale / 4);
  const sim::MachineSpec machine = ScaledMachine();
  std::set<std::string> computed;
  for (const std::string policy : {"pm", "mm", "mo", "merch"}) {
    baselines::PmOnlyPolicy pm;
    baselines::MemoryModePolicy mm;
    baselines::MemoryOptimizerPolicy mo;
    std::unique_ptr<core::MerchandiserPolicy> merch;
    sim::PlacementPolicy* p = &pm;
    if (policy == "mm") {
      p = &mm;
    } else if (policy == "mo") {
      p = &mo;
    } else if (policy == "merch") {
      merch = MatrixSystem().MakePolicy(bundle.workload, machine);
      p = merch.get();
    }
    const std::string run = "E/" + app + "/" + policy;
    sim::Engine engine(bundle.workload, machine, ScaledConfig(), p);
    const sim::SimResult result = engine.Run();
    std::vector<double> placements;
    for (std::size_t i = 0; i < bundle.workload.objects.size(); ++i) {
      placements.push_back(engine.ObjectDramFraction(i));
    }
    ExpectGolden(run, DigestRun(result, placements, p));
    computed.insert(run);
    const sim::EngineCounters c = engine.counters();
    EXPECT_LT(c.base_builds, c.timing_evals) << run;
    if (policy == "pm" || policy == "mm") {
      // Every object stays on PM (pm), or no sweep lane reads residency
      // (mm's hardware cache): no base depends on progress.
      EXPECT_EQ(c.partial_refreshes, 0u) << run;
    }
    if (app == "SpGEMM" && policy == "mo") {
      EXPECT_GT(c.partial_refreshes, 0u) << run;
    }
  }
  ExpectNoStaleRows("E/" + app + "/", computed);
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineMatrixGolden,
                         ::testing::ValuesIn(apps::AppNames()), TestName);

/// Every checked-in row belongs to a run one of the tests above computes.
TEST(SimGolden, EveryRowNamesAnAppOfOneSet) {
  ASSERT_FALSE(Corpus().empty());
  for (const golden::Row& r : Corpus()) {
    bool known = false;
    for (const std::string& app : apps::AppNames()) {
      known = known || r.subject.rfind("S/" + app + "/", 0) == 0 ||
              r.subject.rfind("E/" + app + "/", 0) == 0;
    }
    EXPECT_TRUE(known) << r.subject;
  }
}

}  // namespace
}  // namespace merch
