// Figure 6 reproduction: DRAM and PM memory-bandwidth timelines during the
// WarpX run under Memory Mode, MemoryOptimizer, and Merchandiser.
//
// Paper reference (annotations in Fig. 6 and Section 7.2 text): DRAM peak
// 180 GB/s, PM peak 52 GB/s; under Memory Mode the average DRAM bandwidth
// is 5.98 GB/s vs PM 13.74 GB/s; Merchandiser raises average DRAM
// bandwidth to 24.31 GB/s and lowers PM to 9.97 GB/s. MemoryOptimizer and
// Merchandiser use bandwidth similarly — the win is load balance.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/table.h"

namespace {

/// Downsample the epoch series into `buckets` time buckets.
std::vector<merch::sim::BandwidthSample> Downsample(
    const std::vector<merch::sim::BandwidthSample>& samples,
    std::size_t buckets) {
  std::vector<merch::sim::BandwidthSample> out;
  if (samples.empty()) return out;
  const std::size_t per = std::max<std::size_t>(1, samples.size() / buckets);
  for (std::size_t start = 0; start < samples.size(); start += per) {
    merch::sim::BandwidthSample acc;
    std::size_t n = 0;
    for (std::size_t i = start; i < std::min(samples.size(), start + per);
         ++i) {
      acc.t = samples[i].t;
      acc.dram_gbps += samples[i].dram_gbps;
      acc.pm_gbps += samples[i].pm_gbps;
      acc.migration_gbps += samples[i].migration_gbps;
      ++n;
    }
    acc.dram_gbps /= n;
    acc.pm_gbps /= n;
    acc.migration_gbps /= n;
    out.push_back(acc);
  }
  return out;
}

}  // namespace

int main() {
  using namespace merch;
  const std::vector<std::string> policies = {"mm", "mo", "merch"};

  std::printf("=== Figure 6: WarpX memory bandwidth over time (GB/s) ===\n");
  std::printf("machine peaks: DRAM 180 GB/s, PM 52 GB/s\n");
  for (const std::string& policy : policies) {
    const sim::SimResult& r = bench::Run("WarpX", policy).result;
    std::printf("\n--- %s ---\n", r.policy.c_str());
    TextTable table({"t (s)", "DRAM GB/s", "PM GB/s", "migration GB/s"});
    for (const auto& s : Downsample(r.bandwidth, 24)) {
      table.AddRow({TextTable::Num(s.t, 1), TextTable::Num(s.dram_gbps, 2),
                    TextTable::Num(s.pm_gbps, 2),
                    TextTable::Num(s.migration_gbps, 2)});
    }
    table.Print();
    std::vector<double> dram, pm;
    for (const auto& s : r.bandwidth) {
      dram.push_back(s.dram_gbps);
      pm.push_back(s.pm_gbps);
    }
    std::printf("average: DRAM %.2f GB/s, PM %.2f GB/s\n", Mean(dram),
                Mean(pm));
  }

  const auto avg = [](const sim::SimResult& r, bool dram) {
    std::vector<double> v;
    for (const auto& s : r.bandwidth) {
      v.push_back(dram ? s.dram_gbps : s.pm_gbps);
    }
    return Mean(v);
  };
  const sim::SimResult& mm = bench::Run("WarpX", "mm").result;
  const sim::SimResult& merch = bench::Run("WarpX", "merch").result;
  std::printf(
      "\nshape check — Merchandiser vs Memory Mode: DRAM %.2f -> %.2f GB/s "
      "(paper: 5.98 -> 24.31), PM %.2f -> %.2f GB/s (paper: 13.74 -> "
      "9.97)\n",
      avg(mm, true), avg(merch, true), avg(mm, false), avg(merch, false));
  return 0;
}
