// Figure 3 reproduction: performance of NWChem-TC's five execution phases
// when the ratio of DRAM accesses to total main-memory accesses is 0%,
// 50%, and 100%, normalised to PM-only.
//
// Paper reference: at a 50% ratio, Writeback and Input Processing improve
// by 47.5% and 26.2%; the improvement is *not* linear in the ratio — the
// motivation for learning the correlation function f instead of
// interpolating linearly.
#include <cstdio>

#include "apps/nwchem_tc.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "sim/fixed_fraction.h"

int main() {
  using namespace merch;
  const std::string app = "NWChem-TC";
  const apps::AppBundle& bundle = bench::Prepared(app).bundle;
  const sim::MachineSpec machine = [&] {
    // Homogeneous-capacity machine: the ratio sweep needs DRAM space for
    // up to 100% of the footprint.
    sim::MachineSpec m = bench::Prepared(app).machine;
    m.hm[hm::Tier::kDram].capacity_bytes = 2 * m.hm[hm::Tier::kPm].capacity_bytes;
    return m;
  }();
  // Fixed DRAM-access ratios are no service policy, so the engine runs
  // here, with the SimConfig of the app's paper requests.
  const sim::SimConfig config = service::PlacementService::RequestSimConfig(
      bench::PaperRequest(app, "pm"));

  // Per-phase seconds at each DRAM-access ratio: phase time = mean across
  // tasks of that kernel's time in the first region.
  const std::vector<double> ratios = {0.0, 0.5, 1.0};
  const auto& phases = apps::NwchemPhaseNames();
  std::vector<std::vector<double>> phase_seconds(ratios.size());
  std::vector<double> task_seconds(ratios.size(), 0.0);
  for (std::size_t ri = 0; ri < ratios.size(); ++ri) {
    sim::FixedFractionPolicy policy = sim::FixedFractionPolicy::Uniform(
        bundle.workload.objects.size(), ratios[ri]);
    sim::Engine engine(bundle.workload, machine, config, &policy);
    const sim::SimResult r = engine.Run();
    const sim::RegionStats& region = r.regions.front();
    phase_seconds[ri].assign(phases.size(), 0.0);
    for (const sim::TaskStats& ts : region.tasks) {
      for (std::size_t k = 0; k < ts.kernel_seconds.size(); ++k) {
        phase_seconds[ri][k] += ts.kernel_seconds[k];
      }
      task_seconds[ri] += ts.exec_seconds;
    }
  }

  std::printf(
      "=== Figure 3: NWChem-TC phase time vs DRAM-access ratio "
      "(normalised to ratio 0%%) ===\n");
  TextTable table({"phase", "ratio 0%", "ratio 50%", "ratio 100%",
                   "reduction @50%"});
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const double base = phase_seconds[0][k];
    table.AddRow({phases[k], "1.000",
                  TextTable::Num(phase_seconds[1][k] / base),
                  TextTable::Num(phase_seconds[2][k] / base),
                  TextTable::Pct(1.0 - phase_seconds[1][k] / base)});
  }
  table.AddRow({"entire task", "1.000",
                TextTable::Num(task_seconds[1] / task_seconds[0]),
                TextTable::Num(task_seconds[2] / task_seconds[0]),
                TextTable::Pct(1.0 - task_seconds[1] / task_seconds[0])});
  table.Print();
  std::printf(
      "\npaper reference @50%% ratio: Writeback -47.5%%, Input Processing "
      "-26.2%%; improvements are phase-dependent and nonlinear in the "
      "ratio.\n");
  return 0;
}
