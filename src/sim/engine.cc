#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "cachesim/cpu_cache.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace merch::sim {
namespace {

/// Blend read/write bandwidth of a tier for a given read fraction.
double MixedBandwidthBytesPerSec(const hm::TierSpec& tier, double read_fraction) {
  const double r = std::clamp(read_fraction, 0.0, 1.0);
  const double rb = tier.read_bandwidth_gbps * 1e9;
  const double wb = tier.write_bandwidth_gbps * 1e9;
  // Harmonic blend: time per byte is the mix of per-byte times.
  return 1.0 / (r / rb + (1.0 - r) / wb);
}

/// Read/write-blended access latency: writes pay the tier's write-latency
/// factor (Optane's asymmetric write path).
double BlendedLatencyNs(const hm::TierSpec& tier, double read_fraction,
                        bool sequential) {
  const double base_lat =
      sequential ? tier.seq_latency_ns : tier.rand_latency_ns;
  return base_lat * (read_fraction +
                     (1.0 - read_fraction) * tier.write_latency_factor);
}

/// Up-front capacity for the per-epoch bandwidth telemetry (grows beyond
/// this only for very long runs; see SimResult::bandwidth).
constexpr std::size_t kBandwidthReserve = 4096;

/// Sweeping accesses see the placement of the pages they are about to
/// touch; the lookahead window approximates one epoch's advance.
constexpr double kLookahead = 0.05;

}  // namespace

// ---------------------------------------------------------------- SimContext

const Workload& SimContext::workload() const { return engine_->workload(); }
const MachineSpec& SimContext::machine() const { return engine_->machine(); }
hm::PageTable& SimContext::pages() { return engine_->pages(); }
hm::MigrationEngine& SimContext::migration() { return engine_->migration(); }
AccessOracle& SimContext::oracle() { return engine_->oracle(); }
double SimContext::now() const { return engine_->now(); }
std::size_t SimContext::region_index() const { return engine_->region_index(); }
const std::vector<RegionStats>& SimContext::history() const {
  return engine_->history();
}
double SimContext::ObjectDramFraction(std::size_t object) const {
  return engine_->ObjectDramFraction(object);
}
void SimContext::SetHwDramFraction(std::size_t object, double fraction) {
  engine_->SetHwDramFraction(object, fraction);
}
void SimContext::AddBackgroundTraffic(double bytes_on_pm,
                                      double bytes_on_dram) {
  engine_->AddBackgroundTraffic(bytes_on_pm, bytes_on_dram);
}

// -------------------------------------------------------------------- Engine

Engine::Engine(const Workload& workload, const MachineSpec& machine,
               SimConfig config, PlacementPolicy* policy)
    : workload_(&workload),
      machine_(machine),
      config_(config),
      policy_(policy),
      rng_(config.seed) {
  assert(workload.Validate().empty() && "invalid workload");
  hw_cache_mode_ = policy_ != nullptr && policy_->uses_hardware_cache();
  pages_ = std::make_unique<hm::PageTable>(machine_.hm, config_.page_bytes);
  migration_ = std::make_unique<hm::MigrationEngine>(*pages_);
  RegisterObjects();
  oracle_ = std::make_unique<AccessOracle>(*workload_, *pages_, handles_);
  ctx_ = std::make_unique<SimContext>(*this);

  dram_weight_.assign(workload_->objects.size(), 0.0);
  hw_fraction_.assign(workload_->objects.size(), 0.0);
  heat_total_.assign(workload_->objects.size(), 0.0);
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    const hm::ObjectExtent& e = pages_->extent(handles_[i]);
    const trace::HeatProfile& heat = workload_->objects[i].heat;
    heat_total_[i] = heat.Total(e.num_pages);
    const std::uint64_t on_dram = pages_->object_pages_on(handles_[i], hm::Tier::kDram);
    dram_weight_[i] =
        heat.CumulativeFraction(on_dram, e.num_pages, heat_total_[i]);
  }
  // Keep heat-weighted DRAM fractions current as policies migrate pages,
  // and stamp every move so memoized timing bases know to rebuild. The
  // owner lookup is the page table's dense page->owner map (O(1)).
  pages_->SetMoveListener([this](PageId p, hm::Tier /*from*/, hm::Tier to) {
    ++placement_version_;
    const std::optional<ObjectId> obj = pages_->ObjectOfPage(p);
    if (!obj.has_value() || *obj >= handles_.size()) return;  // scratch
    const std::size_t i = *obj;  // engine registered first: handle == index
    const hm::ObjectExtent& e = pages_->extent(handles_[i]);
    const double w = workload_->objects[i].heat.PageFraction(
        p - e.first_page, e.num_pages, heat_total_[i]);
    dram_weight_[i] += (to == hm::Tier::kDram) ? w : -w;
    dram_weight_[i] = std::clamp(dram_weight_[i], 0.0, 1.0);
  });
}

void Engine::RegisterObjects() {
  handles_.reserve(workload_->objects.size());
  for (const ObjectDecl& o : workload_->objects) {
    // Everything starts on PM: the paper's App Direct baseline state (cold
    // data lands on the big tier; policies promote from there).
    auto id = pages_->RegisterObject(o.bytes, hm::Tier::kPm, o.owner);
    if (!id.has_value()) {
      throw std::runtime_error("object '" + o.name +
                               "' does not fit the machine's memory");
    }
    assert(*id == handles_.size() && "engine handles must be identity-mapped");
    handles_.push_back(*id);
  }
}

double Engine::ObjectDramFraction(std::size_t object) const {
  if (config_.force_tier.has_value()) {
    return *config_.force_tier == hm::Tier::kDram ? 1.0 : 0.0;
  }
  if (hw_cache_mode_) return hw_fraction_[object];
  return dram_weight_[object];
}

void Engine::SetHwDramFraction(std::size_t object, double fraction) {
  const double clamped = std::clamp(fraction, 0.0, 1.0);
  // Bitwise-unchanged fractions cannot change any base: rebuilding against
  // identical inputs reproduces identical costs, so skipping the
  // invalidation is a value-level no-op (hardware-cache policies re-post
  // mostly-stable fractions every interval).
  if (hw_fraction_[object] == clamped) return;
  ++placement_version_;
  hw_fraction_[object] = clamped;
}

void Engine::AddBackgroundTraffic(double bytes_on_pm, double bytes_on_dram) {
  pending_background_pm_ += bytes_on_pm;
  pending_background_dram_ += bytes_on_dram;
}

EngineCounters Engine::counters() const {
  EngineCounters c;
  c.epochs = epochs_;
  c.timing_evals = timing_evals_;
  c.base_builds = base_builds_;
  c.partial_refreshes = partial_refreshes_;
  return c;
}

Engine::DerivedKernel Engine::DeriveKernel(const Kernel& kernel,
                                           const Region& region) {
  DerivedKernel d;
  d.instructions = kernel.instructions;
  d.branch_instructions = kernel.branch_fraction *
                          static_cast<double>(kernel.instructions);
  d.vector_instructions = kernel.vector_fraction *
                          static_cast<double>(kernel.instructions);
  d.compute_seconds = static_cast<double>(kernel.instructions) /
                      (machine_.base_ipc * machine_.core_ghz * 1e9);
  d.accesses.reserve(kernel.accesses.size());
  for (const trace::ObjectAccess& a : kernel.accesses) {
    const ObjectDecl& decl = workload_->objects[a.object];
    const std::uint64_t active =
        region.active_bytes.empty() ? decl.bytes
                                    : std::max<std::uint64_t>(
                                          region.active_bytes[a.object], 1);
    const double miss = cachesim::MainMemoryMissRate(
        a, active, machine_.cache, decl.reuse_passes, &decl.heat);
    const double l2_rate = cachesim::L2MissRate(a, active, machine_.cache);
    const trace::PatternTraits& traits = trace::TraitsOf(a.pattern);
    DerivedAccess da;
    da.object = a.object;
    da.program = static_cast<double>(a.program_accesses);
    da.mm = da.program * miss;
    da.bytes = da.mm * machine_.cache.line_bytes;
    da.read_fraction = a.read_fraction;
    da.mlp = traits.mlp;
    da.overlap = traits.overlap;
    da.prefetch_miss = traits.prefetch_miss;
    da.sequential = traits.sequential_latency;
    da.sweeping = traits.sweeping;
    da.l2_misses = da.program * l2_rate;
    d.accesses.push_back(da);
  }
  // Hoist every placement-independent per-access term into stride-1 lanes.
  LaneBlock& L = d.lanes;
  const std::size_t n = d.accesses.size();
  L.n = n;
  L.mm = arena_.AllocSpan<double>(n);
  L.bytes = arena_.AllocSpan<double>(n);
  L.mlp = arena_.AllocSpan<double>(n);
  L.bw_dram = arena_.AllocSpan<double>(n);
  L.bw_pm = arena_.AllocSpan<double>(n);
  L.lat_dram = arena_.AllocSpan<double>(n);
  L.lat_pm = arena_.AllocSpan<double>(n);
  L.f = arena_.AllocSpan<double>(n);
  L.object = arena_.AllocSpan<std::uint32_t>(n);
  std::size_t n_sweep = 0;
  for (const DerivedAccess& a : d.accesses) n_sweep += a.sweeping ? 1 : 0;
  L.sweep_ix = arena_.AllocSpan<std::uint32_t>(n_sweep);
  const hm::TierSpec& dram = machine_.hm[hm::Tier::kDram];
  const hm::TierSpec& pm = machine_.hm[hm::Tier::kPm];
  std::size_t s = 0;
  double overlap_weight = 0, mm_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const DerivedAccess& a = d.accesses[i];
    L.mm[i] = a.mm;
    L.bytes[i] = a.bytes;
    L.mlp[i] = a.mlp;
    L.bw_dram[i] = MixedBandwidthBytesPerSec(dram, a.read_fraction);
    L.bw_pm[i] = MixedBandwidthBytesPerSec(pm, a.read_fraction);
    L.lat_dram[i] = BlendedLatencyNs(dram, a.read_fraction, a.sequential);
    L.lat_pm[i] = BlendedLatencyNs(pm, a.read_fraction, a.sequential);
    L.object[i] = static_cast<std::uint32_t>(a.object);
    if (a.sweeping) L.sweep_ix[s++] = static_cast<std::uint32_t>(i);
    overlap_weight += a.overlap * a.mm;
    mm_total += a.mm;
  }
  L.overlap = mm_total > 0 ? overlap_weight / mm_total : 0.0;
  return d;
}

double Engine::SweepDramFraction(std::size_t object, double f0,
                                 double f1) const {
  // Callers (the base builders) handle the force-tier and hardware-cache
  // modes; this is the normal-mode probe.
  const ObjectId h = handles_[object];
  const hm::ObjectExtent& e = pages_->extent(h);
  if (e.num_pages == 0) return 0.0;
  // 0 or 16 hits of 16: exactly 0.0 or 1.0.
  if (ResidencyUniform(object)) {
    return pages_->object_pages_on(h, hm::Tier::kDram) == 0 ? 0.0 : 1.0;
  }
  f0 = std::clamp(f0, 0.0, 1.0);
  f1 = std::clamp(f1, f0, 1.0);
  constexpr int kProbes = 16;
  const double num_pages = static_cast<double>(e.num_pages);
  const std::uint64_t last = e.num_pages - 1;
  const double df = f1 - f0;
  std::uint64_t ranks[kProbes];
  // Independent lanes (vectorizable).
  for (int i = 0; i < kProbes; ++i) {
    const double f = f0 + df * (static_cast<double>(i) + 0.5) / kProbes;
    ranks[i] = std::min<std::uint64_t>(
        last, static_cast<std::uint64_t>(f * num_pages));
  }
  // Ranks are monotonically non-decreasing, so runs of equal ranks — all
  // 16 of them for objects smaller than the probe count — share one
  // residency-bitset word lookup. The hit count is unchanged.
  const std::span<const std::uint64_t> bits = pages_->residency_bits(h);
  std::uint64_t prev_rank = ranks[0];
  int prev_hit =
      static_cast<int>((bits[prev_rank >> 6] >> (prev_rank & 63)) & 1u);
  int hits = prev_hit;
  for (int i = 1; i < kProbes; ++i) {
    if (ranks[i] != prev_rank) {
      prev_rank = ranks[i];
      prev_hit =
          static_cast<int>((bits[prev_rank >> 6] >> (prev_rank & 63)) & 1u);
    }
    hits += prev_hit;
  }
  return static_cast<double>(hits) / kProbes;
}

bool Engine::ResidencyUniform(std::size_t object) const {
  const ObjectId h = handles_[object];
  if (!pages_->is_live(h)) return false;
  const std::uint64_t on_dram = pages_->object_pages_on(h, hm::Tier::kDram);
  return on_dram == 0 || on_dram == pages_->extent(h).num_pages;
}

namespace {

/// One lane of the branchless cost loop: the access's time on each tier
/// at lambda == 1 is max(bandwidth time, latency time) for its share of
/// the accesses, and a zero share degenerates to +0.0 everywhere.
inline void CostLane(double f, double mm, double bytes, double mlp,
                     double bw_dram, double bw_pm, double lat_dram,
                     double lat_pm, double* t_dram, double* t_pm,
                     double* b_dram, double* b_pm) {
  const double fd = f;
  const double fp = 1.0 - f;
  const double acc_d = mm * fd;
  const double by_d = bytes * fd;
  const double tbw_d = by_d / bw_dram;
  const double tlat_d = acc_d * lat_dram * 1e-9 / mlp;
  *t_dram = std::max(tbw_d, tlat_d);
  *b_dram = by_d;
  const double acc_p = mm * fp;
  const double by_p = bytes * fp;
  const double tbw_p = by_p / bw_pm;
  const double tlat_p = acc_p * lat_pm * 1e-9 / mlp;
  *t_pm = std::max(tbw_p, tlat_p);
  *b_pm = by_p;
}

}  // namespace

void Engine::ComputeKernelBase(const DerivedKernel& kernel, double progress,
                               KernelBase* out) const {
  ++base_builds_;
  const LaneBlock& L = kernel.lanes;
  const std::size_t n = L.n;
  out->n = n;
  out->compute_seconds = kernel.compute_seconds;
  out->overlap = L.overlap;
  // Per-access DRAM fractions. The force-tier and hardware-cache modes
  // serve sweeping and non-sweeping lanes alike from a constant / direct
  // array read, so only the normal mode probes residency, and only a
  // sweeping lane over a mixed-residency object can read a different
  // fraction at a different progress.
  double* f = L.f.data();
  const std::uint32_t* obj = L.object.data();
  bool mixed = false;
  if (config_.force_tier.has_value()) {
    const double c = *config_.force_tier == hm::Tier::kDram ? 1.0 : 0.0;
    for (std::size_t i = 0; i < n; ++i) f[i] = c;
  } else if (hw_cache_mode_) {
    for (std::size_t i = 0; i < n; ++i) f[i] = hw_fraction_[obj[i]];
  } else {
    for (std::size_t i = 0; i < n; ++i) f[i] = dram_weight_[obj[i]];
    const double p1 = std::min(1.0, progress + kLookahead);
    for (const std::uint32_t ix : L.sweep_ix) {
      f[ix] = SweepDramFraction(obj[ix], progress, p1);
      mixed = mixed || !ResidencyUniform(obj[ix]);
    }
  }
  out->progress_dependent = mixed;
  const double* mm = L.mm.data();
  const double* bytes = L.bytes.data();
  const double* mlp = L.mlp.data();
  const double* bw_d = L.bw_dram.data();
  const double* bw_p = L.bw_pm.data();
  const double* lat_d = L.lat_dram.data();
  const double* lat_p = L.lat_pm.data();
  double* td = out->t_dram.data();
  double* tp = out->t_pm.data();
  double* bd = out->b_dram.data();
  double* bp = out->b_pm.data();
  // Lanes are independent: the compiler is free to vectorize at any width
  // without reordering a single reduction.
  for (std::size_t i = 0; i < n; ++i) {
    CostLane(f[i], mm[i], bytes[i], mlp[i], bw_d[i], bw_p[i], lat_d[i],
             lat_p[i], &td[i], &tp[i], &bd[i], &bp[i]);
  }
  // Order-exact per-tier sums: four independent serial chains, each in
  // access order, exactly what TimingFromBase's fold at lambda == 1 sums.
  double s_td = 0, s_tp = 0, s_bd = 0, s_bp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s_td += td[i];
    s_tp += tp[i];
    s_bd += bd[i];
    s_bp += bp[i];
  }
  out->sum_t_dram = s_td;
  out->sum_t_pm = s_tp;
  out->sum_b_dram = s_bd;
  out->sum_b_pm = s_bp;
}

void Engine::PartialRefreshBase(const DerivedKernel& kernel, double progress,
                                KernelBase* out) const {
  ++partial_refreshes_;
  const LaneBlock& L = kernel.lanes;
  // Placement is unchanged (the caller checked the version stamp), so
  // non-sweeping lanes would recompute to their current values; only the
  // sweep windows moved. Only normal-mode bases are progress-dependent.
  double* f = L.f.data();
  const std::uint32_t* obj = L.object.data();
  const double p1 = std::min(1.0, progress + kLookahead);
  double* td = out->t_dram.data();
  double* tp = out->t_pm.data();
  double* bd = out->b_dram.data();
  double* bp = out->b_pm.data();
  for (const std::uint32_t ix : L.sweep_ix) {
    f[ix] = SweepDramFraction(obj[ix], progress, p1);
    CostLane(f[ix], L.mm[ix], L.bytes[ix], L.mlp[ix], L.bw_dram[ix],
             L.bw_pm[ix], L.lat_dram[ix], L.lat_pm[ix], &td[ix], &tp[ix],
             &bd[ix], &bp[ix]);
  }
  const std::size_t n = out->n;
  double s_td = 0, s_tp = 0, s_bd = 0, s_bp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s_td += td[i];
    s_tp += tp[i];
    s_bd += bd[i];
    s_bp += bp[i];
  }
  out->sum_t_dram = s_td;
  out->sum_t_pm = s_tp;
  out->sum_b_dram = s_bd;
  out->sum_b_pm = s_bp;
}

Engine::KernelTiming Engine::TimingFromBase(const KernelBase& base,
                                            double lambda_dram,
                                            double lambda_pm) const {
  ++timing_evals_;
  KernelTiming out;
  double dram_time = 0, pm_time = 0;
  // Processor-sharing contention: when aggregate demand exceeds the tier's
  // service capacity, every request stream on that tier slows by the same
  // factor (queueing inflates both bandwidth- and latency-bound service).
  // This keeps the achieved aggregate rate at or below the physical peak.
  // The factor is linear per access, which is exactly why the base is
  // reusable across contention iterations: each time is an in-order fold
  // of the lanes times lambda, served from the build-time sums when
  // lambda == 1.0 (t * 1.0 == t bitwise). Bytes are lambda-independent.
  out.dram_bytes = base.sum_b_dram;
  out.pm_bytes = base.sum_b_pm;
  if (lambda_dram == 1.0) {
    dram_time = base.sum_t_dram;
  } else {
    const double* td = base.t_dram.data();
    for (std::size_t i = 0; i < base.n; ++i) dram_time += td[i] * lambda_dram;
  }
  if (lambda_pm == 1.0) {
    pm_time = base.sum_t_pm;
  } else {
    const double* tp = base.t_pm.data();
    for (std::size_t i = 0; i < base.n; ++i) pm_time += tp[i] * lambda_pm;
  }
  const double memory = dram_time + pm_time;
  const double compute = base.compute_seconds;
  // T = C + M - o*min(C, M): o=1 gives perfect overlap (max), o=0 serial.
  out.seconds = compute + memory - base.overlap * std::min(compute, memory);
  out.seconds = std::max(out.seconds, 1e-12);
  out.memory_seconds = out.seconds - compute > 0 ? out.seconds - compute : 0;
  return out;
}

bool Engine::BaseValid(const TaskRuntime& rt) const {
  const KernelBase& b = rt.base;
  if (!b.valid || b.kernel_index != rt.kernel_index) return false;
  if (b.placement_version != placement_version_) return false;
  // Without a sweeping lane over a mixed-residency object, every window
  // reads the fractions the base holds. Any page move bumps the version
  // above, and the full rebuild it forces recomputes the flag.
  return !b.progress_dependent || b.progress == rt.kernel_fraction;
}

void Engine::BuildBase(TaskRuntime& rt) {
  const DerivedKernel& dk = rt.kernels[rt.kernel_index];
  KernelBase& b = rt.base;
  // When only the progress window of a progress-dependent base moved (same
  // kernel, same placement stamp), non-sweeping lanes recompute to their
  // current values — skip them and refresh just the sweep lanes; bitwise
  // equal to a full rebuild.
  const bool sweep_only = b.valid && b.kernel_index == rt.kernel_index &&
                          b.placement_version == placement_version_;
  if (sweep_only) {
    PartialRefreshBase(dk, rt.kernel_fraction, &b);
  } else {
    ComputeKernelBase(dk, rt.kernel_fraction, &b);
  }
  b.valid = true;
  b.kernel_index = rt.kernel_index;
  b.progress = rt.kernel_fraction;
  b.placement_version = placement_version_;
}

void Engine::RefreshKernelBases() {
  for (TaskRuntime& rt : running_) {
    if (!rt.done && !BaseValid(rt)) BuildBase(rt);
  }
}

void Engine::BuildRegionRuntime(const Region& region) {
  running_.clear();  // drop every span into the arena before rewinding it
  arena_.Reset();
  running_.reserve(region.tasks.size());
  for (const TaskProgram& tp : region.tasks) {
    TaskRuntime rt;
    rt.task = tp.task;
    rt.program = &tp;
    rt.kernels.reserve(tp.kernels.size());
    for (const Kernel& k : tp.kernels) {
      rt.kernels.push_back(DeriveKernel(k, region));
    }
    rt.stats.task = tp.task;
    rt.stats.object_program_accesses.assign(workload_->objects.size(), 0.0);
    rt.stats.object_mm_accesses.assign(workload_->objects.size(), 0.0);
    rt.stats.kernel_seconds.assign(tp.kernels.size(), 0.0);
    rt.stats.agg.core_ghz = machine_.core_ghz;
    running_.push_back(std::move(rt));
  }
  // One SoA cost table per task, sized for its widest kernel; rebuilds
  // overwrite it in place, so the epoch loop never touches the heap.
  for (TaskRuntime& rt : running_) {
    std::size_t width = 0;
    for (const DerivedKernel& dk : rt.kernels) {
      width = std::max(width, dk.accesses.size());
    }
    rt.base.t_dram = arena_.AllocSpan<double>(width);
    rt.base.t_pm = arena_.AllocSpan<double>(width);
    rt.base.b_dram = arena_.AllocSpan<double>(width);
    rt.base.b_pm = arena_.AllocSpan<double>(width);
  }
  live_tasks_ = running_.size();
  timing_.assign(running_.size(), KernelTiming{});
}

void Engine::CollectMigrationTraffic() {
  const hm::MigrationStats stats = migration_->TakeEpochStats();
  migration_queue_bytes_ +=
      static_cast<double>(stats.bytes_to_dram + stats.bytes_to_pm);
}

void Engine::StepEpoch() {
  MERCH_TRACE_SPAN_VAR(epoch_span, obs::Category::kSim, "engine.epoch");
  const double dt = config_.epoch_seconds;
  ++epochs_;
  epoch_span.set_arg("live_tasks", static_cast<std::int64_t>(live_tasks_));

  // Any migrations policies performed since the last epoch become traffic.
  CollectMigrationTraffic();
  const double migration_rate =
      std::min(migration_queue_bytes_ / dt, config_.migration_gbps * 1e9);

  // Placement and sweep windows are fixed for the whole epoch, so one base
  // per task serves every timing evaluation below.
  RefreshKernelBases();

  // Fixed-point contention resolution.
  double lambda_dram = 1.0, lambda_pm = 1.0;
  timing_at_final_lambda_ = false;
  for (int iter = 0; iter < 8; ++iter) {
    double demand_dram = migration_rate + background_dram_rate_;
    double demand_pm = migration_rate + background_pm_rate_;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      TaskRuntime& rt = running_[i];
      if (rt.done) continue;
      timing_[i] = TimingFromBase(rt.base, lambda_dram, lambda_pm);
      demand_dram += timing_[i].dram_bytes / timing_[i].seconds;
      demand_pm += timing_[i].pm_bytes / timing_[i].seconds;
    }
    // Multiplicative update: demand was computed *under* the current
    // lambdas, so scaling them by achieved-demand/capacity converges to
    // the processor-sharing fixed point instead of oscillating.
    const double util_dram =
        demand_dram / (machine_.hm[hm::Tier::kDram].read_bandwidth_gbps * 1e9);
    const double util_pm =
        demand_pm / (machine_.hm[hm::Tier::kPm].read_bandwidth_gbps * 1e9);
    const double next_dram = std::max(1.0, lambda_dram * util_dram);
    const double next_pm = std::max(1.0, lambda_pm * util_pm);
    if (std::abs(next_dram - lambda_dram) < 1e-3 * lambda_dram &&
        std::abs(next_pm - lambda_pm) < 1e-3 * lambda_pm && iter >= 1) {
      timing_at_final_lambda_ =
          next_dram == lambda_dram && next_pm == lambda_pm;
      lambda_dram = next_dram;
      lambda_pm = next_pm;
      break;
    }
    if (next_dram == lambda_dram && next_pm == lambda_pm) {
      // iter == 0 with bitwise-unchanged lambdas (the uncontended common
      // case; iter >= 1 hits the break above): the next iteration would
      // recompute identical timings and demands, then break with the same
      // lambdas. Skip it outright — a value-level no-op.
      timing_at_final_lambda_ = true;
      break;
    }
    lambda_dram = next_dram;
    lambda_pm = next_pm;
  }

  // Advance tasks.
  double dram_bytes_epoch = 0, pm_bytes_epoch = 0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    TaskRuntime& rt = running_[i];
    if (rt.done) continue;
    double dt_left = dt;
    bool first_slice = true;
    while (dt_left > 0 && !rt.done) {
      const DerivedKernel& dk = rt.kernels[rt.kernel_index];
      // The first slice reuses the epoch's base directly; later slices
      // (kernel boundary or sweep progress inside the epoch) rebuild it.
      if (!BaseValid(rt)) {
        BuildBase(rt);
        first_slice = false;  // timing_[i] predates this base
      }
      // When the fixed point ended on exactly the lambdas timing_[i] was
      // evaluated at and the base is untouched since, re-evaluating would
      // reproduce timing_[i] bit for bit.
      const KernelTiming kt =
          timing_at_final_lambda_ && first_slice
              ? timing_[i]
              : TimingFromBase(rt.base, lambda_dram, lambda_pm);
      first_slice = false;
      const double remaining = (1.0 - rt.kernel_fraction) * kt.seconds;
      const double advance = std::min(remaining, dt_left);
      const double dprog = advance / kt.seconds;
      const double f_before = rt.kernel_fraction;
      const double f_after = std::min(1.0, f_before + dprog);

      // Account this slice of the kernel.
      for (const DerivedAccess& a : dk.accesses) {
        const double mm = a.mm * dprog;
        if (a.sweeping) {
          oracle_->AddSweep(a.object, rt.task, f_before, f_after, mm);
        } else {
          oracle_->Add(a.object, rt.task, mm);
        }
        rt.stats.object_program_accesses[a.object] += a.program * dprog;
        rt.stats.object_mm_accesses[a.object] += mm;
        rt.stats.agg.program_accesses += a.program * dprog;
        rt.stats.agg.mm_accesses += mm;
        rt.stats.agg.l2_misses += a.l2_misses * dprog;
        rt.stats.agg.prefetch_miss_weighted += a.prefetch_miss * mm;
        rt.stats.agg.overlap_weighted += a.overlap * mm;
      }
      rt.stats.agg.instructions +=
          static_cast<std::uint64_t>(static_cast<double>(dk.instructions) * dprog);
      rt.stats.agg.branch_instructions += dk.branch_instructions * dprog;
      rt.stats.agg.vector_instructions += dk.vector_instructions * dprog;
      rt.stats.agg.compute_seconds += dk.compute_seconds * dprog;
      rt.stats.agg.memory_seconds += kt.memory_seconds * dprog;
      dram_bytes_epoch += kt.dram_bytes * dprog;
      pm_bytes_epoch += kt.pm_bytes * dprog;
      rt.stats.kernel_seconds[rt.kernel_index] += advance;

      dt_left -= advance;
      rt.kernel_fraction += dprog;
      if (rt.kernel_fraction >= 1.0 - 1e-12) {
        rt.kernel_fraction = 0.0;
        ++rt.kernel_index;
        if (rt.kernel_index >= rt.kernels.size()) {
          rt.done = true;
          --live_tasks_;
          rt.finish_time = t_ + (dt - dt_left);
          MERCH_TRACE_INSTANT_ARG(obs::Category::kSim, "engine.task_done",
                                  "task", rt.task);
        } else {
          MERCH_TRACE_INSTANT_ARG(obs::Category::kSim, "engine.kernel_done",
                                  "kernel", rt.kernel_index - 1);
        }
      }
    }
  }

  // Drain migration queue and background traffic.
  const double migrated = migration_rate * dt;
  migration_queue_bytes_ = std::max(0.0, migration_queue_bytes_ - migrated);
  const double bg_dram = background_dram_rate_ * dt;
  const double bg_pm = background_pm_rate_ * dt;

  BandwidthSample sample;
  sample.t = t_;
  sample.dram_gbps = (dram_bytes_epoch + migrated + bg_dram) / dt / 1e9;
  sample.pm_gbps = (pm_bytes_epoch + migrated + bg_pm) / dt / 1e9;
  sample.migration_gbps = migrated / dt / 1e9;
  bandwidth_.push_back(sample);

  t_ += dt;
}

void Engine::EndInterval() {
  {
    MERCH_TRACE_SPAN(obs::Category::kSim, "engine.interval");
    if (policy_ != nullptr) policy_->OnInterval(*ctx_);
  }
  oracle_->ResetEpoch();
  // Background traffic set during OnInterval applies to the next interval.
  background_pm_rate_ = pending_background_pm_ / config_.interval_seconds;
  background_dram_rate_ = pending_background_dram_ / config_.interval_seconds;
  pending_background_pm_ = 0;
  pending_background_dram_ = 0;
}

void Engine::FinishRegion(const Region& region, double region_start) {
  RegionStats rs;
  rs.name = region.name;
  rs.start_time = region_start;
  rs.tasks.reserve(running_.size());
  double slowest = 0;
  for (TaskRuntime& rt : running_) {
    rt.stats.exec_seconds = rt.finish_time - region_start;
    slowest = std::max(slowest, rt.stats.exec_seconds);
  }
  rs.duration = slowest;
  for (TaskRuntime& rt : running_) {
    rt.stats.barrier_wait = slowest - rt.stats.exec_seconds;
    rt.stats.agg.exec_seconds = rt.stats.exec_seconds;
    rt.stats.pmcs = SynthesizePmcs(rt.stats.agg, rng_, config_.pmc_noise);
    rs.tasks.push_back(std::move(rt.stats));
  }
  history_.push_back(std::move(rs));
}

SimResult Engine::Run() {
  MERCH_TRACE_SPAN_VAR(run_span, obs::Category::kSim, "engine.run");
  run_span.set_arg("regions",
                   static_cast<std::int64_t>(workload_->regions.size()));
  interval_deadline_ = config_.interval_seconds;
  // Size the run-long telemetry up front: one bandwidth sample per epoch,
  // one stats entry per region. Exponential regrowth in the epoch loop
  // would copy the whole history every doubling.
  history_.reserve(workload_->regions.size());
  bandwidth_.reserve(kBandwidthReserve);
  if (policy_ != nullptr) policy_->OnSimulationStart(*ctx_);

  for (region_index_ = 0; region_index_ < workload_->regions.size();
       ++region_index_) {
    const Region& region = workload_->regions[region_index_];
    MERCH_TRACE_SPAN_VAR(region_span, obs::Category::kSim, "engine.region");
    region_span.set_arg("region",
                        static_cast<std::int64_t>(region_index_));
    BuildRegionRuntime(region);
    const double region_start = t_;
    if (policy_ != nullptr) policy_->OnRegionStart(*ctx_, region_index_);
    while (live_tasks_ > 0) {
      StepEpoch();
      if (t_ >= interval_deadline_ - 1e-12) {
        EndInterval();
        interval_deadline_ += config_.interval_seconds;
      }
    }
    // Synchronisation point: flush the profiling interval so policies see
    // the region's tail activity (regions shorter than the interval would
    // otherwise never be profiled). The deadline does not advance here.
    EndInterval();
    FinishRegion(region, region_start);
    if (policy_ != nullptr) policy_->OnRegionEnd(*ctx_, region_index_);
  }

  // One registry update per run, so the hot loops above never touch the
  // shared counters: the memo hit ratio is timing_evals vs base_builds.
  MERCH_METRIC_COUNT("merch_engine_runs_total", 1);
  MERCH_METRIC_COUNT("merch_engine_epochs_total", epochs_);
  MERCH_METRIC_COUNT("merch_engine_timing_evals_total", timing_evals_);
  MERCH_METRIC_COUNT("merch_engine_base_builds_total", base_builds_);

  SimResult result;
  result.policy = policy_ != nullptr
                      ? policy_->name()
                      : (config_.force_tier == hm::Tier::kDram ? "DRAM-only"
                                                               : "PM-only");
  result.workload = workload_->name;
  result.regions = history_;
  result.bandwidth = std::move(bandwidth_);
  result.migration = migration_->lifetime_stats();
  double total = 0;
  for (const RegionStats& r : result.regions) total += r.duration;
  result.total_seconds = total;
  return result;
}

SimResult SimulateHomogeneous(const Workload& workload,
                              const MachineSpec& machine, hm::Tier tier,
                              SimConfig config) {
  config.force_tier = tier;
  Engine engine(workload, machine, config, nullptr);
  return engine.Run();
}

}  // namespace merch::sim
