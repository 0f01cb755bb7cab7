// Figure 5 reproduction: task execution time distributions (box plot
// summaries of per-task times normalised to each instance's slowest task)
// and the A.C.V load-balance metric.
//
// Paper reference: Merchandiser reduces A.C.V by 51.6% vs Memory Mode and
// 42.7% vs MemoryOptimizer on average; vs PM-only it reduces A.C.V by
// 39.1% (SpGEMM) and 21.4% (BFS) — it removes even app-inherent imbalance.
// WarpX and DMRG have no load imbalance of their own.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/table.h"

int main() {
  using namespace merch;
  const std::vector<std::string> policies = {"pm", "mm", "mo", "merch"};

  std::printf(
      "=== Figure 5: normalized task execution time distribution ===\n");
  TextTable table({"application", "policy", "q1", "median", "q3", "min",
                   "max", "A.C.V"});
  std::map<std::string, std::map<std::string, double>> acv;
  for (const std::string& app : apps::AppNames()) {
    for (const std::string& policy : policies) {
      const sim::SimResult& r = bench::Run(app, policy).result;
      const auto times = r.NormalizedTaskTimes();
      const BoxStats box = ComputeBoxStats(times);
      acv[app][policy] = r.AverageCoV();
      table.AddRow({app, r.policy, TextTable::Num(box.q1),
                    TextTable::Num(box.median), TextTable::Num(box.q3),
                    TextTable::Num(box.min), TextTable::Num(box.max),
                    TextTable::Num(r.AverageCoV())});
    }
  }
  table.Print();

  double vs_mm = 0, vs_mo = 0;
  std::printf("\nA.C.V reduction by Merchandiser:\n");
  TextTable reduction({"application", "vs PM-only", "vs Memory Mode",
                       "vs MemoryOptimizer"});
  for (const std::string& app : apps::AppNames()) {
    const double merch = acv[app]["merch"];
    auto red = [&](const char* p) {
      return acv[app][p] > 0 ? 1.0 - merch / acv[app][p] : 0.0;
    };
    reduction.AddRow({app, TextTable::Pct(red("pm")),
                      TextTable::Pct(red("mm")), TextTable::Pct(red("mo"))});
    vs_mm += red("mm");
    vs_mo += red("mo");
  }
  reduction.Print();
  const double n = static_cast<double>(apps::AppNames().size());
  std::printf(
      "\naverage A.C.V reduction: %s vs Memory Mode (paper: 51.6%%), "
      "%s vs MemoryOptimizer (paper: 42.7%%)\n",
      TextTable::Pct(vs_mm / n).c_str(), TextTable::Pct(vs_mo / n).c_str());
  return 0;
}
