// Ablation: the design choices inside Merchandiser's migration decision —
// (a) Algorithm 1's step size (the paper fixes 5%), (b) instance-start
// placement vs paper-faithful quota-capped reactive migration only,
// (c) load-balance awareness itself (greedy vs giving every task an equal
// DRAM-access share).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"
#include "sim/fixed_fraction.h"

namespace merch {
namespace {

/// An engine run on `app`'s prepared paper instance with its request's
/// SimConfig, for a policy the service does not define: an Algorithm 1
/// variant or the equal-share strawman.
sim::SimResult RunVariant(const std::string& app,
                          sim::PlacementPolicy* policy) {
  const service::PlacementService::PreparedApp& prepared =
      bench::Prepared(app);
  return sim::Engine(prepared.bundle.workload, prepared.machine,
                     service::PlacementService::RequestSimConfig(
                         bench::PaperRequest(app, "merch")),
                     policy)
      .Run();
}

double RunWith(const std::string& app, core::MerchandiserConfig cfg) {
  auto policy = bench::TrainedSystem().MakePolicy(
      bench::Prepared(app).homogeneous, cfg);
  return RunVariant(app, policy.get()).total_seconds;
}

}  // namespace
}  // namespace merch

int main() {
  using namespace merch;
  const std::string app = "DMRG";  // regular app: placement-decision bound
  const apps::AppBundle& bundle = bench::Prepared(app).bundle;
  const double pm_time = bench::Run(app, "pm").result.total_seconds;

  std::printf("=== Ablation: Algorithm 1 step size (%s) ===\n", app.c_str());
  TextTable steps({"step", "speedup vs PM-only", "greedy rounds note"});
  for (const double step : {0.025, 0.05, 0.10, 0.20}) {
    core::MerchandiserConfig cfg;
    cfg.greedy.step = step;
    const double t = RunWith(app, cfg);
    steps.AddRow({TextTable::Pct(step), TextTable::Num(pm_time / t),
                  step == 0.05 ? "paper default" : ""});
  }
  steps.Print();

  std::printf("\n=== Ablation: placement mechanism (%s) ===\n", app.c_str());
  TextTable mech({"variant", "speedup vs PM-only"});
  {
    core::MerchandiserConfig cfg;
    cfg.proactive_placement = true;
    mech.AddRow({"instance-start placement (default)",
                 TextTable::Num(pm_time / RunWith(app, cfg))});
  }
  {
    core::MerchandiserConfig cfg;
    cfg.proactive_placement = false;
    mech.AddRow({"quota-capped reactive migration only",
                 TextTable::Num(pm_time / RunWith(app, cfg))});
  }
  mech.Print();
  std::printf(
      "(reactive-only migration cannot pre-place sweep prefixes, so the "
      "instance-start variant dominates on regular apps.)\n");

  std::printf(
      "\n=== Ablation: load-balance awareness (equal-share strawman) "
      "===\n");
  TextTable balance({"variant", "speedup vs PM-only", "A.C.V"});
  {
    const sim::SimResult& merch = bench::Run(app, "merch").result;
    balance.AddRow({"Merchandiser (Algorithm 1)",
                    TextTable::Num(pm_time / merch.total_seconds),
                    TextTable::Num(merch.AverageCoV())});
  }
  {
    // Equal DRAM-access share for every object: capacity split evenly.
    const double even_fraction =
        0.9 *
        static_cast<double>(bench::Prepared(app).machine.hm.dram_capacity()) /
        static_cast<double>(bundle.workload.TotalBytes());
    sim::FixedFractionPolicy equal = sim::FixedFractionPolicy::Uniform(
        bundle.workload.objects.size(), std::min(0.95, even_fraction));
    const sim::SimResult r = RunVariant(app, &equal);
    balance.AddRow({"equal share per object",
                    TextTable::Num(pm_time / r.total_seconds),
                    TextTable::Num(r.AverageCoV())});
  }
  balance.Print();
  return 0;
}
