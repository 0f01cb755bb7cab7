// Ablation: sensitivity to the fast-memory capacity — how Merchandiser's
// advantage over task-agnostic tiering changes as DRAM shrinks or grows
// relative to the paper's 192 GB. The load-balance channel matters most
// when fast memory is contended; with abundant DRAM all policies converge.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"

namespace merch {
namespace {

struct Point {
  double pm_only = 0;
  double memory_optimizer = 0;
  double merchandiser = 0;
};

/// `app`'s paper requests on a copy of its prepared instance whose DRAM is
/// `dram_scale` times the paper's. The §5.2 profile the copy carries is
/// capacity-independent (force-tier runs), so merch reads the same one.
Point RunAt(const std::string& app, double dram_scale) {
  service::PlacementService::PreparedApp prepared = bench::Prepared(app);
  std::uint64_t& dram = prepared.machine.hm[hm::Tier::kDram].capacity_bytes;
  dram = static_cast<std::uint64_t>(static_cast<double>(dram) * dram_scale);
  const auto seconds = [&](const std::string& policy) {
    return bench::Simulate(prepared, bench::PaperRequest(app, policy))
        .result.total_seconds;
  };
  return {seconds("pm"), seconds("mo"), seconds("merch")};
}

}  // namespace
}  // namespace merch

int main() {
  using namespace merch;
  const std::string app = "SpGEMM";
  std::printf(
      "=== Ablation: DRAM capacity sweep (%s, paper capacity = 192 GB) "
      "===\n",
      app.c_str());
  TextTable table({"DRAM capacity", "MemoryOptimizer speedup",
                   "Merchandiser speedup", "Merchandiser advantage"});
  for (const double scale : {0.25, 0.5, 1.0, 1.5, 2.0}) {
    const Point p = RunAt(app, scale);
    const double mo = p.pm_only / p.memory_optimizer;
    const double merch = p.pm_only / p.merchandiser;
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f GB", 192.0 * scale);
    table.AddRow({label, TextTable::Num(mo), TextTable::Num(merch),
                  TextTable::Pct(merch / mo - 1.0)});
  }
  table.Print();
  return 0;
}
