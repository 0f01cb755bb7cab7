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

/// Largest footprint scale a request may carry. Memory grows with the
/// scale: the engine keeps state per page of a footprint proportional to
/// it. A pm run at scale 4 peaks at 33-142 MB across the five apps; at
/// scale 64 SpGEMM needed 675 MB and BFS 1.36 GB, and at 1024 BFS could
/// not allocate. Beyond 2^64 bytes the capacity casts would overflow.
/// 1, the paper's Table 2 footprint, is the largest any caller here uses.
constexpr double kMaxScale = 4.0;

/// Largest per-task access-count scale a request may carry. Simulated
/// time, and so run time, grows linearly with the work: on a 4-vCPU Xeon
/// host a cold merch run at work 4 took 0.27-1.08 s across the five apps
/// against 0.10-0.87 s at work 1, and `--work 1e6` never finished. 1 is
/// the largest any caller here uses.
constexpr double kMaxWork = 4.0;

/// Policy names a request may carry ("all" is a merchctl-level expansion,
/// not a service policy).
const std::vector<std::string>& PolicyNames();

/// Normalize `req` in place: application names resolve case-insensitively
/// against the registry ("spgemm" -> "SpGEMM"), policies lower-case, and
/// `train_regions` collapses to 0 for policies that never train, so
/// e.g. {pm, train_regions=100} and {pm, train_regions=281} share one
/// cache entry; scale must lie in (0, kMaxScale], work in (0, kMaxWork],
/// and merch requires 1..kMaxTrainRegions. Returns an empty
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
