// Engine hot-path benchmark: measures what the residency index, timing-base
// memoization, and SIMD cost kernels buy on real runs.
//
// Each run executes in three engine variants, all on one thread:
//   legacy    — sweep_index=false, timing_memo=false: the pre-index
//               engine's cost profile (full TimeKernel per task per
//               fixed-point iteration; linear page/extent scans for
//               page->object lookup, MoveHottest, and EvictColdest;
//               strided PageEntry tier loads). SIMD lanes are forced off
//               on this path by the engine's resolution rule.
//   scalar    — index + memo on, SIMD lanes off: isolates the algorithmic
//               wins from vectorization.
//   optimized — scalar plus the SIMD lane kernels (MERCH_SIMD default):
//               the engine every production run takes.
// Results are bit-identical across every variant (the bench exits 1 on any
// sim_seconds divergence; tests/engine_equiv_test.cc proves the same for
// every app and policy); only the wall clock and hot-path counters differ.
//
//   1. The tracked number: a fig4-style sweep — Engine::Run of the five
//      paper applications under all four policies {pm-only, MemoryMode,
//      MemoryOptimizer, Merchandiser} at full scale, legacy vs the full
//      optimized engine.
//   2. The same sweep at a second (quarter) scale (legacy + optimized
//      only; the variant curves are measured at the tracked scale).
//   3. A PlacementService batch (five apps x {pm, mm, mo}) with the
//      legacy pass driven through the MERCH_SWEEP_INDEX /
//      MERCH_ENGINE_MEMO escape hatches, end-to-end through the service.
//      Every pass builds each app once (the service's prepared-app cache).
//
// Writes BENCH_engine.json (override with --out <path>); --quick shrinks
// scales for CI smoke runs; --repeat N takes min wall clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "bench/bench_util.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "common/table.h"
#include "core/merchandiser.h"
#include "service/placement_service.h"
#include "sim/engine.h"
#include "workloads/training.h"

namespace merch {
namespace {

const std::vector<std::string>& Policies() {
  static const std::vector<std::string> kPolicies = {"pm", "mm", "mo",
                                                     "merch"};
  return kPolicies;
}

/// One engine configuration under measurement.
struct Variant {
  const char* name;
  bool indexed;  // sweep_index + timing_memo
  bool simd;     // SIMD lane kernels (only meaningful when indexed)
};

struct RunRow {
  std::string app;
  std::string policy;
  double scale = 1.0;
  std::string variant;
  double wall_seconds = 0;         // min over --repeat runs
  double wall_median_seconds = 0;  // median over --repeat runs
  double sim_seconds = 0;  // simulated makespan (must match across variants)
  std::uint64_t epochs = 0;
  double epochs_per_sec = 0;
  std::uint64_t timing_evals = 0;
  std::uint64_t base_builds = 0;
  std::uint64_t partial_refreshes = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One correlation system per process: engine speed, not training speed,
/// is under test, so a reduced training budget keeps the bench short.
const core::MerchandiserSystem& TrainedSystem(bool quick) {
  static const core::MerchandiserSystem* kSystem = [quick] {
    workloads::TrainingConfig cfg;
    cfg.num_regions = quick ? 8 : 40;
    std::fprintf(stderr, "[engine_speed] training correlation (%zu x %zu)\n",
                 cfg.num_regions, cfg.placements_per_region);
    return new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
  }();
  return *kSystem;
}

RunRow TimeEngineRun(const std::string& app, const std::string& policy,
                     double scale, double work, const Variant& v, bool quick) {
  service::PlacementRequest req;
  req.app = app;
  req.scale = scale;
  req.work = work;
  const apps::AppBundle bundle = apps::BuildApp(app, scale, work);
  const sim::MachineSpec machine =
      service::PlacementService::RequestMachine(req);
  sim::SimConfig cfg = service::PlacementService::RequestSimConfig(req);
  cfg.sweep_index = v.indexed;
  cfg.timing_memo = v.indexed;
  cfg.simd = v.simd;

  // Policy construction (incl. Merchandiser's offline steps) happens
  // outside the timed section: the engine's epoch loop is what is tracked.
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
    merch = TrainedSystem(quick).MakePolicy(bundle.workload, machine);
    p = merch.get();
  }

  sim::Engine engine(bundle.workload, machine, cfg, p);
  const double t0 = Now();
  const sim::SimResult result = engine.Run();
  const double wall = Now() - t0;
  const sim::EngineCounters c = engine.counters();

  RunRow row;
  row.app = app;
  row.policy = policy;
  row.scale = scale;
  row.variant = v.name;
  row.wall_seconds = wall;
  row.sim_seconds = result.total_seconds;
  row.epochs = c.epochs;
  row.epochs_per_sec = wall > 0 ? static_cast<double>(c.epochs) / wall : 0;
  row.timing_evals = c.timing_evals;
  row.base_builds = c.base_builds;
  row.partial_refreshes = c.partial_refreshes;
  row.wall_median_seconds = wall;
  return row;
}

/// TimeEngineRun under --repeat: min/median wall clock over `repeats`
/// otherwise-identical runs (deterministic, so every other field agrees).
/// Every derived rate is recomputed from the min-of-N sample — one
/// repetition's wall clock must never be paired with another's rate.
RunRow TimeEngineRunRepeated(const std::string& app, const std::string& policy,
                             double scale, double work, const Variant& v,
                             bool quick, int repeats) {
  RunRow row;
  const bench::RepeatTiming t = bench::MeasureRepeated(repeats, [&] {
    row = TimeEngineRun(app, policy, scale, work, v, quick);
    return row.wall_seconds;
  });
  row.wall_seconds = t.min_seconds;
  row.wall_median_seconds = t.median_seconds;
  row.epochs_per_sec = t.min_seconds > 0
                           ? static_cast<double>(row.epochs) / t.min_seconds
                           : 0;
  return row;
}

/// Wall seconds for a five-app x {pm, mm, mo} batch through the service,
/// one Submit per request.
double TimeServiceBatch(double scale, double work) {
  service::PlacementService service({.threads = 2});
  std::vector<service::PlacementRequest> reqs;
  for (const std::string& app : apps::AppNames()) {
    for (const char* policy : {"pm", "mm", "mo"}) {
      service::PlacementRequest req;
      req.app = app;
      req.policy = policy;
      req.scale = scale;
      req.work = work;
      reqs.push_back(req);
    }
  }
  std::vector<service::PlacementService::Ticket> tickets;
  for (const service::PlacementRequest& req : reqs) {
    tickets.push_back(service.Submit(req));
  }
  const double t0 = Now();
  for (auto& t : tickets) t.future.wait();
  const double wall = Now() - t0;
  for (auto& t : tickets) {
    const service::PlacementResult& r = t.future.get();
    if (!r.ok()) {
      std::fprintf(stderr, "service run failed: %s\n", r.error.c_str());
      std::exit(1);
    }
  }
  return wall;
}

void WriteJson(const char* path, const std::vector<RunRow>& rows,
               double sweep_speedup, double service_legacy_wall,
               double service_optimized_wall, bool quick) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_speed\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    double legacy_wall = 0;
    for (const RunRow& o : rows) {
      if (o.app == r.app && o.policy == r.policy && o.scale == r.scale &&
          o.variant == "legacy") {
        legacy_wall = o.wall_seconds;
      }
    }
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"policy\": \"%s\", \"scale\": %g, "
        "\"variant\": \"%s\", \"wall_seconds\": %.6f, "
        "\"wall_median_seconds\": %.6f, "
        "\"sim_seconds\": %.9g, \"epochs\": %llu, \"epochs_per_sec\": %.1f, "
        "\"timing_evals\": %llu, \"base_builds\": %llu, "
        "\"partial_refreshes\": %llu, "
        "\"speedup\": %.3f}%s\n",
        r.app.c_str(), r.policy.c_str(), r.scale, r.variant.c_str(),
        r.wall_seconds, r.wall_median_seconds, r.sim_seconds,
        static_cast<unsigned long long>(r.epochs), r.epochs_per_sec,
        static_cast<unsigned long long>(r.timing_evals),
        static_cast<unsigned long long>(r.base_builds),
        static_cast<unsigned long long>(r.partial_refreshes),
        r.wall_seconds > 0 ? legacy_wall / r.wall_seconds : 0.0,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"five_app_sweep_speedup\": %.3f,\n", sweep_speedup);
  std::fprintf(f,
               "  \"service_batch\": {\"legacy_wall_seconds\": %.6f, "
               "\"optimized_wall_seconds\": %.6f, \"speedup\": %.3f}\n",
               service_legacy_wall, service_optimized_wall,
               service_optimized_wall > 0
                   ? service_legacy_wall / service_optimized_wall
                   : 0.0);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace merch

int main(int argc, char** argv) {
  using namespace merch;
  bool quick = false;
  int repeats = 1;
  const char* out = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--repeat N] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  const Variant kLegacy{"legacy", false, false};
  const Variant kScalar{"scalar", true, false};
  const Variant kOptimized{"optimized", true, true};

  // (scale, work) pairs; the first is the tracked fig4-scale measurement.
  std::vector<std::pair<double, double>> scales;
  if (quick) {
    scales = {{0.05, 0.05}, {0.02, 0.03}};
  } else {
    scales = {{1.0, 1.0}, {0.25, 0.25}};
  }
  const double service_scale = quick ? 0.02 : 0.05;
  const double service_work = quick ? 0.03 : 0.05;

  std::vector<RunRow> rows;
  double sweep_legacy = 0, sweep_optimized = 0;
  std::printf("=== engine_speed: five apps x {pm, mm, mo, merch} ===\n");
  TextTable table({"application", "policy", "scale", "legacy s", "scalar s",
                   "optimized s", "speedup"});
  for (std::size_t s = 0; s < scales.size(); ++s) {
    for (const std::string& app : apps::AppNames()) {
      for (const std::string& policy : Policies()) {
        const double scale = scales[s].first;
        const double work = scales[s].second;
        const RunRow legacy = TimeEngineRunRepeated(app, policy, scale, work,
                                                    kLegacy, quick, repeats);
        rows.push_back(legacy);
        // The scalar rung only at the tracked scale; the secondary scale
        // tracks legacy vs the full engine.
        std::vector<Variant> curve;
        if (s == 0) curve = {kScalar};
        curve.push_back(kOptimized);
        RunRow optimized;
        std::string scalar_s = "-";
        for (const Variant& v : curve) {
          const RunRow r = TimeEngineRunRepeated(app, policy, scale, work, v,
                                                 quick, repeats);
          if (legacy.sim_seconds != r.sim_seconds) {
            std::fprintf(stderr, "%s/%s/%s: variants diverged (%.9g vs %.9g)\n",
                         app.c_str(), policy.c_str(), v.name,
                         legacy.sim_seconds, r.sim_seconds);
            return 1;
          }
          rows.push_back(r);
          if (std::strcmp(v.name, "scalar") == 0) {
            scalar_s = TextTable::Num(r.wall_seconds);
          } else {
            optimized = r;
          }
        }
        if (s == 0) {
          sweep_legacy += legacy.wall_seconds;
          sweep_optimized += optimized.wall_seconds;
        }
        table.AddRow({app, policy, TextTable::Num(scale),
                      TextTable::Num(legacy.wall_seconds), scalar_s,
                      TextTable::Num(optimized.wall_seconds),
                      TextTable::Num(legacy.wall_seconds /
                                     std::max(optimized.wall_seconds, 1e-9))});
      }
    }
  }
  table.Print();
  const double sweep_speedup =
      sweep_optimized > 0 ? sweep_legacy / sweep_optimized : 0;
  std::printf("\nfive-app sweep aggregate (scale %g, 4 policies): "
              "legacy %.2fs, optimized %.2fs -> %.2fx\n",
              scales[0].first, sweep_legacy, sweep_optimized, sweep_speedup);

  // Service batch: the legacy pass goes through the env escape hatches so
  // the whole stack (service -> engine) is exercised, not just the config.
  std::printf("\n=== engine_speed: service batch (5 apps x pm/mm/mo) ===\n");
  setenv("MERCH_SWEEP_INDEX", "0", 1);
  setenv("MERCH_ENGINE_MEMO", "0", 1);
  const double service_legacy = TimeServiceBatch(service_scale, service_work);
  unsetenv("MERCH_SWEEP_INDEX");
  unsetenv("MERCH_ENGINE_MEMO");
  const double service_optimized =
      TimeServiceBatch(service_scale, service_work);
  std::printf("legacy %.2fs, optimized %.2fs -> %.2fx\n", service_legacy,
              service_optimized,
              service_legacy / std::max(service_optimized, 1e-9));

  WriteJson(out, rows, sweep_speedup, service_legacy, service_optimized,
            quick);
  return 0;
}
