// Shared infrastructure for the table/figure reproduction binaries.
//
// Every bench binary reproduces one table or figure of the paper at the
// paper's scale (Table 2 footprints, 192 GB DRAM / 1.5 TB PM machine) and
// prints the measured rows next to the paper's reported values where the
// paper gives them. Results are deterministic (fixed seeds).
//
// The runs are service requests: PaperRequest names one, Prepared and Run
// answer it through PlacementService::PrepareApp and ::Simulate, the path
// the service and `merchctl run` take, so a figure and a request for the
// same point print the same numbers.
#pragma once

#include <string>

#include "core/merchandiser.h"
#include "service/placement_service.h"

namespace merch::bench {

/// The correlation-function system at the paper's training scale (281
/// code regions x 10 placements), decoded once per process from the
/// built-in model artifact (service::ObtainSystem), which
/// tests/model_artifact_test.cc pins bit-identical to that training.
const core::MerchandiserSystem& TrainedSystem();

/// The paper-scale request for `app` under `policy` (a service policy
/// name): scale 1, work 1, the 281-region built-in f, seed 42,
/// canonicalized.
service::PlacementRequest PaperRequest(const std::string& app,
                                       const std::string& policy);

/// PlacementService::PrepareApp of `app`'s paper request, once per
/// process; prints the error and exits 1 if the preparation fails.
const service::PlacementService::PreparedApp& Prepared(const std::string& app);

/// PlacementService::Simulate of `req` against `prepared` (Prepared(app)
/// or a modified copy of it) with TrainedSystem(); prints the error and
/// exits 1 if the run fails.
service::PlacementService::Simulation Simulate(
    const service::PlacementService::PreparedApp& prepared,
    const service::PlacementRequest& req);

/// Simulate(Prepared(app), PaperRequest(app, policy)), once per process so
/// figure benches sharing runs don't recompute. The result's policy field
/// names the policy as the figures print it ("PM-only", "MemoryMode",
/// "MemoryOptimizer", "Merchandiser", ...).
const service::PlacementService::Simulation& Run(const std::string& app,
                                                 const std::string& policy);

}  // namespace merch::bench
