// Placement-query descriptors exchanged with the PlacementService.
//
// A PlacementRequest names one (application, policy, scale, work,
// training-budget, seed) simulation; a PlacementResult carries the summary
// a guidance client needs: makespan, the paper's A.C.V load-balance
// metric, migration volume, and the chosen per-object placements (final
// heat-weighted DRAM fraction per registered object).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace merch::service {

struct PlacementRequest {
  std::string app = "SpGEMM";
  /// One of: pm, mm, mo, merch, sparta, warpx-pm.
  std::string policy = "merch";
  double scale = 1.0;             // footprint scale (1.0 = paper Table 2)
  double work = 1.0;              // per-task access-count scale
  std::size_t train_regions = 281;  // correlation-training budget (merch)
  std::uint64_t seed = 42;
};

/// Largest correlation-training budget a merch request may carry.
/// Training time grows with the budget and holds the service's training
/// lock, so one huge request would stall every merch training behind it;
/// 281, the paper's budget, is the largest any caller here uses.
constexpr std::size_t kMaxTrainRegions = 1024;

/// Policy names a request may carry ("all" is a merchctl-level expansion,
/// not a service policy).
const std::vector<std::string>& PolicyNames();

/// Normalize `req` in place: application names resolve case-insensitively
/// against the registry ("spgemm" -> "SpGEMM"), policies lower-case, and
/// `train_regions` collapses to 0 for policies that never train, so
/// e.g. {pm, train_regions=100} and {pm, train_regions=281} share one
/// cache entry; merch requires 1..kMaxTrainRegions. Returns an empty
/// string on success, else a message naming the bad field and the valid
/// values.
std::string CanonicalizeRequest(PlacementRequest& req);

/// Cache/dedup key of a canonicalized request. Doubles are printed with
/// round-trip precision, so requests are equal iff their keys are.
std::string CanonicalKey(const PlacementRequest& req);

/// One object's chosen placement at end of simulation.
struct ObjectPlacement {
  std::string object;
  std::uint64_t bytes = 0;
  double dram_fraction = 0;  // heat-weighted fraction served from DRAM
};

struct PlacementResult {
  PlacementRequest request;
  std::string error;           // empty = success
  double makespan_seconds = 0;
  double task_cov = 0;         // paper's A.C.V (mean CoV of task times)
  std::uint64_t migrated_bytes = 0;
  std::size_t regions = 0;
  std::vector<ObjectPlacement> placements;

  bool ok() const { return error.empty(); }
};

}  // namespace merch::service
