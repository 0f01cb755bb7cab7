// Discrete-time heterogeneous-memory execution engine.
//
// The engine advances all tasks of a region in lock-step epochs. Per epoch
// it (1) derives each object's served-from-DRAM fraction from page
// placement (or the hardware-cache model), (2) resolves bandwidth
// contention across tasks, migration traffic, and background traffic with
// a short fixed-point iteration, (3) advances task progress, and (4)
// accumulates access counts (for profilers) and bandwidth telemetry
// (Figure 6). Regions end with a barrier: the region's duration is its
// slowest task — the paper's central observation is that placement must
// optimise *that*, not individual task speed.
//
// Hot-path structure: a kernel's timing under contention factors
// (lambda_dram, lambda_pm) is linear in the lambdas per access, so the
// engine splits a kernel's timing into a lambda-independent per-access
// cost table (KernelBase: the expensive part — residency probes, bandwidth
// blends, latency math) and an O(#accesses) multiply-add application. The
// base is memoized per task and invalidated only when the task's kernel,
// any page placement, or — for a base whose sweeping accesses read an
// object with pages on both tiers — its sweep window changed since it was
// built; the fixed-point iterations and the advance pass then reuse one
// base instead of re-evaluating the kernel's timing up to 9x per task per
// epoch. The epoch loop runs on the caller's thread; parallelism lives
// across independent runs, never inside an epoch.
//
// The base is lane-structured (DESIGN.md §5): DeriveKernel hoists every
// placement-independent per-access term (mixed bandwidths, blended
// latencies, the mm-weighted overlap) into stride-1 SoA arrays once per
// region, base rebuilds run a branchless vectorizable loop over those
// lanes (sweep-only partial rebuilds when only the progress window moved),
// TimingFromBase serves the uncontended lambda == 1 case from order-exact
// per-tier sums, and the contention fixed point skips iterations whose
// lambdas are bitwise unchanged. Each shortcut either computes the FP
// operation sequence of the full per-access fold or skips work whose
// recomputation would be a bitwise no-op; tests/sim_golden_test.cc pins
// the results.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "hm/migration.h"
#include "hm/page_table.h"
#include "sim/arena.h"
#include "sim/machine.h"
#include "sim/oracle.h"
#include "sim/policy.h"
#include "sim/telemetry.h"
#include "sim/workload.h"

namespace merch::sim {

struct SimConfig {
  /// Simulation time step.
  double epoch_seconds = 0.02;
  /// Profiling/migration interval (MemoryOptimizer-style daemon period).
  double interval_seconds = 0.5;
  /// Placement granularity (2 MiB regions bound metadata at TiB scale; the
  /// paper migrates 4 KiB pages — ratios, not granularity, drive results).
  std::uint64_t page_bytes = 2 * MiB;
  /// Migration engine transfer-rate cap.
  double migration_gbps = 2.0;
  /// PMU measurement noise (multiplicative sigma).
  double pmc_noise = 0.02;
  std::uint64_t seed = 42;
  /// Homogeneous-run override: serve every access from this tier,
  /// ignoring capacity (used to obtain T_dram_only / T_pm_only bounds).
  std::optional<hm::Tier> force_tier;
};

/// Monotonic hot-path counters (e2ebench's traced mode reports them).
struct EngineCounters {
  std::uint64_t epochs = 0;
  /// KernelTiming evaluations requested (fixed-point + advance passes).
  std::uint64_t timing_evals = 0;
  /// Full per-access cost-table builds (the expensive evaluations; with
  /// memoization this is the small fraction of timing_evals not served
  /// from a cached base).
  std::uint64_t base_builds = 0;
  /// Sweep-only partial base refreshes: rebuilds that touched only the
  /// sweeping lanes because placement was unchanged and only the progress
  /// window moved. Only bases whose sweeping lanes read a mixed-residency
  /// object (pages on both tiers) refresh; see KernelBase::progress_dependent.
  std::uint64_t partial_refreshes = 0;
};

class Engine {
 public:
  /// `policy` may be null (homogeneous/force-tier runs only). Throws
  /// std::runtime_error when an object fits neither tier.
  Engine(const Workload& workload, const MachineSpec& machine,
         SimConfig config, PlacementPolicy* policy);

  SimResult Run();

  // --- accessors used by SimContext ---
  const Workload& workload() const { return *workload_; }
  const MachineSpec& machine() const { return machine_; }
  const SimConfig& config() const { return config_; }
  hm::PageTable& pages() { return *pages_; }
  hm::MigrationEngine& migration() { return *migration_; }
  AccessOracle& oracle() { return *oracle_; }
  double now() const { return t_; }
  std::size_t region_index() const { return region_index_; }
  const std::vector<RegionStats>& history() const { return history_; }
  double ObjectDramFraction(std::size_t object) const;
  void SetHwDramFraction(std::size_t object, double fraction);
  void AddBackgroundTraffic(double bytes_on_pm, double bytes_on_dram);

  EngineCounters counters() const;

 private:
  struct DerivedAccess {
    std::size_t object = 0;
    double program = 0;        // program-level accesses
    double mm = 0;             // main-memory accesses
    double bytes = 0;          // mm * line size
    double read_fraction = 1.0;
    double mlp = 1.0;
    double overlap = 0.0;
    double prefetch_miss = 0.0;
    bool sequential = true;
    bool sweeping = true;
    double l2_misses = 0;
  };
  /// Stride-1 per-access lanes for the base builder. Everything
  /// placement-independent is hoisted here once per region by
  /// DeriveKernel, so ComputeKernelBase is a branchless loop over
  /// contiguous doubles. Arena-backed; valid until the next region's
  /// BuildRegionRuntime.
  struct LaneBlock {
    std::size_t n = 0;
    std::span<double> mm;        // main-memory accesses
    std::span<double> bytes;     // mm * line size
    std::span<double> mlp;
    std::span<double> bw_dram;   // MixedBandwidthBytesPerSec per tier
    std::span<double> bw_pm;
    std::span<double> lat_dram;  // read/write-blended latency (ns)
    std::span<double> lat_pm;
    std::span<double> f;         // scratch: per-access DRAM fraction
    std::span<std::uint32_t> object;
    std::span<std::uint32_t> sweep_ix;  // indices of sweeping accesses
    double overlap = 0;  // mm-weighted overlap, summed in access order
  };
  struct DerivedKernel {
    double compute_seconds = 0;
    std::uint64_t instructions = 0;
    double branch_instructions = 0;
    double vector_instructions = 0;
    std::vector<DerivedAccess> accesses;
    LaneBlock lanes;
  };
  struct KernelTiming {
    double seconds = 0;    // contended kernel duration
    double dram_bytes = 0; // bytes on DRAM for the whole kernel
    double pm_bytes = 0;
    double memory_seconds = 0;  // unhidden memory time
  };
  /// Memoized expensive half of a kernel's timing: the lambda-independent
  /// per-access tier costs (max(bandwidth, latency) seconds at lambda == 1,
  /// and bytes) in SoA spans (capacity = the task's widest kernel,
  /// arena-backed), plus order-exact per-tier sums that serve the
  /// uncontended lambda == 1 evaluations directly. Tagged with the inputs
  /// it was built from so staleness is detectable.
  struct KernelBase {
    std::span<double> t_dram;  // lanes (n = active access count)
    std::span<double> t_pm;
    std::span<double> b_dram;
    std::span<double> b_pm;
    std::size_t n = 0;
    double sum_t_dram = 0;  // serial in-order sums over the lanes
    double sum_t_pm = 0;
    double sum_b_dram = 0;
    double sum_b_pm = 0;
    double compute_seconds = 0;
    double overlap = 0;  // mm-weighted average overlap factor
    bool valid = false;
    /// Some sweeping lane reads an object with pages on both tiers, so the
    /// base depends on progress. Uniformly resident objects (and the
    /// force-tier and hardware-cache modes) serve every sweep window the
    /// same fraction, so their bases stay valid as progress moves.
    bool progress_dependent = false;
    std::size_t kernel_index = 0;
    double progress = 0;
    std::uint64_t placement_version = 0;
  };
  struct TaskRuntime {
    TaskId task = kInvalidTask;
    const TaskProgram* program = nullptr;
    std::vector<DerivedKernel> kernels;
    std::size_t kernel_index = 0;
    double kernel_fraction = 0;  // progress within current kernel
    bool done = false;
    double finish_time = 0;
    TaskStats stats;  // accumulated
    KernelBase base;  // memoized timing base for the current kernel
  };

  void RegisterObjects();
  void BuildRegionRuntime(const Region& region);
  /// Non-const: carves the kernel's LaneBlock out of arena_.
  DerivedKernel DeriveKernel(const Kernel& kernel, const Region& region);

  /// The expensive, lambda-independent half of a kernel's timing at the
  /// given sweep progress (sequential accesses only benefit from DRAM
  /// pages in the upcoming rank window; see trace::PatternTraits::sweeping):
  /// residency probes, then a branchless stride-1 cost loop over the
  /// kernel's LaneBlock plus the order-exact per-tier sums.
  void ComputeKernelBase(const DerivedKernel& kernel, double progress,
                         KernelBase* out) const;
  /// Recompute only the sweeping lanes of a progress-dependent base whose
  /// placement stamp is current (only the progress window moved).
  /// Non-sweeping lanes cannot have changed, so this equals a full rebuild
  /// bit for bit.
  void PartialRefreshBase(const DerivedKernel& kernel, double progress,
                          KernelBase* out) const;
  /// The cheap half: the contended duration of the kernel a base was
  /// built for, under contention factors (lambda_dram, lambda_pm).
  KernelTiming TimingFromBase(const KernelBase& base, double lambda_dram,
                              double lambda_pm) const;
  bool BaseValid(const TaskRuntime& rt) const;
  void BuildBase(TaskRuntime& rt);
  /// Rebuild every live task's stale base, in task order.
  void RefreshKernelBases();

  /// Fraction of pages in the rank window [f0, f1) of `object` resident on
  /// DRAM, probed at 16 fixed-stride ranks (exact for prefix placements)
  /// through the page table's residency bitset. Consecutive equal ranks —
  /// the common case for small objects, since ranks are monotonically
  /// non-decreasing — share one bitset lookup. A uniformly resident
  /// object answers 0.0 or 1.0 without probing: its 16 probes would all
  /// read the same bit.
  double SweepDramFraction(std::size_t object, double f0, double f1) const;
  /// Whether every page of `object` sits on one tier, read from the live
  /// DRAM-page count, which mirrors a live object's residency bits. A
  /// released object's stale bits are not counted, so it reads as mixed.
  bool ResidencyUniform(std::size_t object) const;
  /// One epoch: contention fixed point, task advancement, telemetry.
  void StepEpoch();
  /// A profiling interval's end (the periodic deadline, or the region-end
  /// flush): the policy's OnInterval, then the engine's follow-up — reset
  /// the oracle's interval counters and roll pending background traffic
  /// into the active rates.
  void EndInterval();
  /// Pull migration-engine activity into the rate-limited traffic queue.
  void CollectMigrationTraffic();
  void FinishRegion(const Region& region, double region_start);

  const Workload* workload_;
  MachineSpec machine_;
  SimConfig config_;
  PlacementPolicy* policy_;
  Rng rng_;

  std::unique_ptr<hm::PageTable> pages_;
  std::unique_ptr<hm::MigrationEngine> migration_;
  std::unique_ptr<AccessOracle> oracle_;
  std::unique_ptr<SimContext> ctx_;

  std::vector<ObjectId> handles_;
  std::vector<double> dram_weight_;   // heat-weighted DRAM fraction / object
  /// HeatProfile::Total of each object's page count, computed once: the
  /// move listener weighs every migrated page with it, and the workload's
  /// profiles stay read-only for engines sharing one prepared app.
  std::vector<double> heat_total_;
  std::vector<double> hw_fraction_;   // hardware-cache mode fractions
  bool hw_cache_mode_ = false;
  EpochArena arena_;                  // lane scratch, rewound per region

  /// Bumped on every page move and hardware-fraction update; memoized
  /// bases referencing an older version are stale.
  std::uint64_t placement_version_ = 1;

  double t_ = 0;
  double interval_deadline_ = 0;
  std::size_t region_index_ = 0;
  std::vector<TaskRuntime> running_;
  std::size_t live_tasks_ = 0;        // not-done entries of running_

  std::vector<KernelTiming> timing_;  // per-task scratch, hoisted off StepEpoch
  std::vector<RegionStats> history_;
  std::vector<BandwidthSample> bandwidth_;

  mutable std::uint64_t epochs_ = 0;
  mutable std::uint64_t timing_evals_ = 0;
  mutable std::uint64_t base_builds_ = 0;
  mutable std::uint64_t partial_refreshes_ = 0;
  /// Set by the fixed point when the final lambdas are bitwise the ones
  /// timing_ was last evaluated at (exact convergence), letting the
  /// advance pass reuse timing_[i] for each task's first slice.
  bool timing_at_final_lambda_ = false;

  double migration_queue_bytes_ = 0;
  double background_pm_rate_ = 0;    // bytes/s charged to PM
  double background_dram_rate_ = 0;  // bytes/s charged to DRAM
  double pending_background_pm_ = 0;
  double pending_background_dram_ = 0;
};

/// Convenience: run `workload` with every access served from `tier`
/// (capacity ignored). Returns per-region per-task stats — the source of
/// the T_pm_only / T_dram_only bounds in Eq. 2.
SimResult SimulateHomogeneous(const Workload& workload,
                              const MachineSpec& machine, hm::Tier tier,
                              SimConfig config = {});

}  // namespace merch::sim
