// Figure 4 reproduction: overall performance of Memory Mode,
// MemoryOptimizer, and Merchandiser, normalised to PM-only execution, for
// the five applications — plus the application-specific comparisons
// (Sparta for SpGEMM, WarpX-PM for WarpX) reported in Section 7.1's text.
//
// Paper reference: Merchandiser improves over PM-only / Memory Mode /
// MemoryOptimizer by 23.6% / 17.1% / 15.4% on average (up to 37.8% /
// 26.0% / 23.2%); +17.3% over Sparta and -4.6% vs WarpX-PM.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"

namespace merch {
namespace {

double Seconds(const std::string& app, const std::string& policy) {
  return bench::Run(app, policy).result.total_seconds;
}

double Speedup(const std::string& app, const std::string& policy) {
  return Seconds(app, "pm") / Seconds(app, policy);
}

}  // namespace
}  // namespace merch

int main() {
  using namespace merch;
  std::printf("=== Figure 4: speedup over PM-only ===\n");
  TextTable table({"application", "Memory Mode", "MemoryOptimizer",
                   "Merchandiser"});
  double sum_mm = 0, sum_mo = 0, sum_merch = 0;
  double max_over_mm = 0, max_over_mo = 0, max_over_pm = 0;
  const auto& apps = apps::AppNames();
  for (const std::string& app : apps) {
    const double mm = Speedup(app, "mm");
    const double mo = Speedup(app, "mo");
    const double merch = Speedup(app, "merch");
    table.AddRow({app, TextTable::Num(mm), TextTable::Num(mo),
                  TextTable::Num(merch)});
    sum_mm += merch / mm;
    sum_mo += merch / mo;
    sum_merch += merch;
    max_over_mm = std::max(max_over_mm, merch / mm - 1.0);
    max_over_mo = std::max(max_over_mo, merch / mo - 1.0);
    max_over_pm = std::max(max_over_pm, merch - 1.0);
  }
  table.Print();

  const double n = static_cast<double>(apps.size());
  std::printf(
      "\nMerchandiser vs PM-only:        avg +%s (paper: +23.6%%), "
      "max +%s (paper: +37.8%%)\n",
      TextTable::Pct(sum_merch / n - 1.0).c_str(),
      TextTable::Pct(max_over_pm).c_str());
  std::printf(
      "Merchandiser vs Memory Mode:    avg +%s (paper: +17.1%%), "
      "max +%s (paper: +26.0%%)\n",
      TextTable::Pct(sum_mm / n - 1.0).c_str(),
      TextTable::Pct(max_over_mm).c_str());
  std::printf(
      "Merchandiser vs MemoryOptimizer: avg +%s (paper: +15.4%%), "
      "max +%s (paper: +23.2%%)\n",
      TextTable::Pct(sum_mo / n - 1.0).c_str(),
      TextTable::Pct(max_over_mo).c_str());

  // Application-specific systems (Section 7.1 text).
  std::printf(
      "\nSpGEMM: Merchandiser vs Sparta-like: %+.1f%% (paper: +17.3%% — "
      "Sparta ignores cross-multiplication load balance)\n",
      (Seconds("SpGEMM", "sparta") / Seconds("SpGEMM", "merch") - 1.0) *
          100.0);
  std::printf(
      "WarpX:  Merchandiser vs WarpX-PM:    %+.1f%% (paper: -4.6%% — "
      "manual lifetime analysis is the expert ceiling)\n",
      (Seconds("WarpX", "warpx-pm") / Seconds("WarpX", "merch") - 1.0) *
          100.0);
  return 0;
}
