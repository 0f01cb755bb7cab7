#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "service/model_artifact.h"

namespace merch::bench {

using service::PlacementService;

const core::MerchandiserSystem& TrainedSystem() {
  static const core::MerchandiserSystem* kSystem =
      new core::MerchandiserSystem(service::ObtainSystem(281));
  return *kSystem;
}

service::PlacementRequest PaperRequest(const std::string& app,
                                       const std::string& policy) {
  service::PlacementRequest req{app, policy, 1, 1, 281, 42};
  if (const std::string err = service::CanonicalizeRequest(req);
      !err.empty()) {
    std::fprintf(stderr, "bench: %s\n", err.c_str());
    std::exit(1);
  }
  return req;
}

const PlacementService::PreparedApp& Prepared(const std::string& app) {
  static auto* cache =
      new std::map<std::string, PlacementService::PreparedApp>();
  auto it = cache->find(app);
  if (it == cache->end()) {
    PlacementService::PreparedApp prepared =
        PlacementService::PrepareApp(PaperRequest(app, "pm"));
    if (!prepared.error.empty()) {
      std::fprintf(stderr, "bench: %s: %s\n", app.c_str(),
                   prepared.error.c_str());
      std::exit(1);
    }
    it = cache->emplace(app, std::move(prepared)).first;
  }
  return it->second;
}

PlacementService::Simulation Simulate(
    const PlacementService::PreparedApp& prepared,
    const service::PlacementRequest& req) {
  PlacementService::Simulation run =
      PlacementService::Simulate(prepared, req, &TrainedSystem());
  if (!run.error.empty()) {
    std::fprintf(stderr, "bench: %s/%s: %s\n", req.app.c_str(),
                 req.policy.c_str(), run.error.c_str());
    std::exit(1);
  }
  return run;
}

const PlacementService::Simulation& Run(const std::string& app,
                                        const std::string& policy) {
  static auto* cache =
      new std::map<std::string, PlacementService::Simulation>();
  const std::string key = app + "/" + policy;
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, Simulate(Prepared(app), PaperRequest(app, policy)))
             .first;
  }
  return it->second;
}

}  // namespace merch::bench
