#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "service/model_artifact.h"

namespace merch::bench {

RepeatTiming MeasureRepeated(int repeats,
                             const std::function<double()>& sample) {
  repeats = std::max(1, repeats);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) samples.push_back(sample());
  std::sort(samples.begin(), samples.end());
  RepeatTiming t;
  t.repeats = repeats;
  t.min_seconds = samples.front();
  const std::size_t mid = samples.size() / 2;
  t.median_seconds = samples.size() % 2 == 1
                         ? samples[mid]
                         : 0.5 * (samples[mid - 1] + samples[mid]);
  return t;
}

sim::MachineSpec PaperMachine() { return sim::MachineSpec::Paper(); }

sim::SimConfig PaperSimConfig() {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.05;
  cfg.interval_seconds = 0.5;
  cfg.page_bytes = 2 * MiB;
  cfg.migration_gbps = 2.0;
  cfg.seed = 42;
  return cfg;
}

const core::MerchandiserSystem& TrainedSystem() {
  static const core::MerchandiserSystem* kSystem =
      new core::MerchandiserSystem(service::ObtainSystem(281));
  return *kSystem;
}

const apps::AppBundle& Bundle(const std::string& name) {
  static auto* cache = new std::map<std::string, apps::AppBundle>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, apps::BuildApp(name)).first;
  }
  return it->second;
}

const sim::SimResult& Run(const std::string& app, const std::string& policy) {
  static auto* cache = new std::map<std::string, sim::SimResult>();
  const std::string key = app + "/" + policy;
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  const apps::AppBundle& bundle = Bundle(app);
  const sim::MachineSpec machine = PaperMachine();
  const sim::SimConfig cfg = PaperSimConfig();

  sim::SimResult result;
  if (policy == kPmOnly) {
    baselines::PmOnlyPolicy p;
    result = sim::Engine(bundle.workload, machine, cfg, &p).Run();
  } else if (policy == kMemoryMode) {
    baselines::MemoryModePolicy p;
    result = sim::Engine(bundle.workload, machine, cfg, &p).Run();
  } else if (policy == kMemoryOptimizer) {
    baselines::MemoryOptimizerPolicy p;
    result = sim::Engine(bundle.workload, machine, cfg, &p).Run();
  } else if (policy == kMerchandiser) {
    auto p = TrainedSystem().MakePolicy(bundle.workload, machine);
    result = sim::Engine(bundle.workload, machine, cfg, p.get()).Run();
  } else {
    std::fprintf(stderr, "unknown policy %s\n", policy.c_str());
    std::abort();
  }
  return cache->emplace(key, std::move(result)).first->second;
}

}  // namespace merch::bench
