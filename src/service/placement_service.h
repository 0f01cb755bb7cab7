// Merchandiser-as-a-service: a long-lived, concurrent placement-query
// engine on top of the simulator.
//
// Every Submit() turns a PlacementRequest into (at most) one simulation
// job on a fixed ThreadPool. Four layers keep repeated and concurrent
// traffic cheap:
//
//   1. ResultCache — completed canonical requests are served back without
//      re-simulation (placement queries are deterministic; see
//      service/result_cache.h).
//   2. In-flight coalescing — identical requests submitted while the first
//      is still queued or running share one job and one future.
//   3. Trained-system sharing — 'merch' requests reuse one immutable
//      MerchandiserSystem per training budget ("the construction of f
//      happens only once", paper Section 5.1). The default budget decodes
//      the built-in model artifact (service/model_artifact.h) once per
//      service; other budgets train, serialized. A trained function has
//      no lock and no mutable state, so jobs share it read-only.
//   4. Prepared-app cache — jobs that need the same application instance
//      (app, scale, work) share one build and analysis pass ("offline,
//      once per app", core/merchandiser.h); bounded, single-flight, and
//      consulted only after the result cache misses.
//
// Nothing memoizes instance decisions across requests: every merch job
// runs Algorithm 1 on its own instance's inputs (paper Section 6). The
// result and prepared-app caches are bounded; the trained systems (one
// per distinct training budget) are the only state traffic can grow.
// Each simulation owns its Engine/PageTable/Rng state, so jobs are
// embarrassingly parallel and results are bit-identical regardless of the
// pool width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/registry.h"
#include "core/merchandiser.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace merch::service {

/// Point-in-time counters (cache counters come from the ResultCache).
struct ServiceStats {
  std::uint64_t submitted = 0;   // requests through any Submit* entry
  std::uint64_t coalesced = 0;   // joined an identical in-flight request
  std::uint64_t simulated = 0;   // jobs that actually ran an Engine
  std::uint64_t failed = 0;      // jobs whose result carries an error
  /// Prepared-app cache: app instances built (PrepareApp runs), and
  /// retained instances dropped to stay within kPreparedAppCapacity.
  std::uint64_t app_builds = 0;
  std::uint64_t app_evictions = 0;
  /// Always 0: instance decisions are never memoized across requests.
  /// Kept only because e2ebench's `core.greedy_cache_hit_ratio` reads
  /// them (Ratio(0, 0) reports 0).
  std::uint64_t greedy_hits = 0;
  std::uint64_t greedy_misses = 0;
  CacheStats cache;
  std::size_t threads = 0;
};

class PlacementService {
 public:
  struct Config {
    std::size_t threads = 1;
    std::size_t cache_capacity = 128;
    std::size_t queue_capacity = 1024;
  };

  /// How a Submit() was satisfied, plus the (shared) result future.
  struct Ticket {
    std::shared_future<PlacementResult> future;
    bool cache_hit = false;   // served from the result cache, no job
    bool coalesced = false;   // joined an existing in-flight job
  };

  /// Prepared apps retained at once (least recently used dropped first).
  /// A constant, not a knob: a retained bundle is 17-137 KB.
  static constexpr std::size_t kPreparedAppCapacity = 16;

  explicit PlacementService(Config config);

  /// Drains in-flight jobs (ThreadPool::Shutdown semantics).
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  /// Canonicalizes and enqueues `request`. Invalid requests yield a ready
  /// future whose result carries the error — Submit itself never throws.
  Ticket Submit(PlacementRequest request);

  /// Batch submission: admits the requests in input order exactly like
  /// one Submit() each (ticket i answers request i; cache hits and
  /// coalescing as usual), then dispatches the cache-missing jobs by
  /// occurrence rank within their app instance (app, scale, work), stable.
  /// The first job of every instance goes out before any second one, so
  /// the first wave of pool jobs builds distinct apps concurrently instead
  /// of leaving every worker waiting on one single-flight build. Instances
  /// are ranked in blocks of kPreparedAppCapacity (by first appearance),
  /// so a batch wider than the prepared-app cache never cycles it.
  std::vector<Ticket> SubmitBatch(std::vector<PlacementRequest> requests);

  /// Completion callback: invoked exactly once per SubmitAsync, with the
  /// finished result. Runs on the worker thread that completed the job —
  /// or inline on the caller's thread for cache hits, invalid requests,
  /// and shutdown rejections — so it must be cheap and non-blocking.
  using Callback = std::function<void(const PlacementResult&)>;

  /// Submit + continuation, for callers that must not block on a future
  /// (the net reactor). Coalesces with in-flight identical requests like
  /// Submit(); every coalesced waiter's callback fires when the shared job
  /// completes.
  Ticket SubmitAsync(PlacementRequest request, Callback done);

  /// Cache-only probe: canonicalizes and returns the cached result if
  /// present, without enqueueing anything. Invalid requests return
  /// nullopt. Lets admission control serve warm keys even while shedding
  /// simulation load.
  std::optional<PlacementResult> Peek(PlacementRequest request);

  /// Jobs accepted by the pool but not yet started (shedding signal).
  std::size_t QueueDepth() const;

  /// The result cache (snapshot save/load; see ResultCache::Serialize).
  ResultCache& result_cache() { return cache_; }
  const ResultCache& result_cache() const { return cache_; }

  ServiceStats Stats() const;

  /// Stop accepting work and finish everything accepted so far.
  void Shutdown();

  // --- the one run path: pool jobs, merchctl run, the paper benches ---

  /// The evaluation machine with both tier capacities scaled by
  /// `req.scale` (capacity pressure tracks the footprint).
  static sim::MachineSpec RequestMachine(const PlacementRequest& req);

  /// Simulation knobs for `req` (epoch, placement granularity, seed).
  static sim::SimConfig RequestSimConfig(const PlacementRequest& req);

  /// The policy- and seed-independent half of a request: app
  /// construction, the static-analysis gates, the machine and the app's
  /// §5.2 homogeneous profile (paper §5.3: offline, once per app). It
  /// reads only (app, scale, work), so every request naming that instance
  /// may share one. Shared instances are read-only: engines and policies take
  /// the bundle by const reference and nothing reachable from it caches
  /// through `mutable`. A build or lint failure lands in `error` and fails
  /// each run against it identically. Each completed apps::BuildApp call is
  /// one `merch_service_app_build_seconds` observation inside a
  /// `service.build_app` span.
  struct PreparedApp {
    apps::AppBundle bundle;
    sim::MachineSpec machine;
    /// HomogeneousPredictor::Prepare(bundle.workload, machine): two
    /// region-0 engine runs whose SimConfig is fixed, so every merch
    /// request against this instance reuses them. Only merch reads it, so
    /// a failed profile (an app too large for the machine at the
    /// profile's 2 MiB pages) fails merch requests with `homogeneous_error`
    /// and leaves the other policies usable.
    core::HomogeneousPredictor homogeneous;
    std::string homogeneous_error;
    std::string error;  // empty = usable
  };
  static PreparedApp PrepareApp(const PlacementRequest& req);

  /// What one engine run of a request produced.
  struct Simulation {
    sim::SimResult result;
    /// Engine::ObjectDramFraction of each workload object at the end.
    std::vector<double> dram_fractions;
    /// The policy that ran. It may reference the `prepared` app and the
    /// `system` it ran against: read it (e.g. merch's decisions() and
    /// AverageAlpha()) only while they live.
    std::unique_ptr<sim::PlacementPolicy> policy;
    std::string error;  // empty = ran
  };

  /// The per-request half against an already-prepared app: the service's
  /// policy switch for `req.policy`, the seed-dependent SimConfig
  /// (RequestSimConfig(req)) and the engine run. `req` must be
  /// canonicalized; `system` may be null for policies other than 'merch'.
  /// A preparation error, a policy the app does not define (e.g. 'sparta'
  /// without a priority list), 'merch' without a `system` and a failed
  /// construction or run land in `error`. Never throws.
  static Simulation Simulate(const PreparedApp& prepared,
                             const PlacementRequest& req,
                             const core::MerchandiserSystem* system);

  /// Simulate's summary: what a request answers (echoed request,
  /// makespan, A.C.V, migration volume, per-object placements).
  /// Simulate's error lands in the result.
  static PlacementResult RunPrepared(const PreparedApp& prepared,
                                     const PlacementRequest& req,
                                     const core::MerchandiserSystem* system);

 private:
  /// The shared immutable trained system for `train_regions`, obtained on
  /// first use (ObtainSystem). The built-in system decodes under its own
  /// lock, so a default-budget request never waits behind another
  /// budget's training; trainings are serialized. Throws what ObtainSystem
  /// throws.
  std::shared_ptr<const core::MerchandiserSystem> TrainedSystem(
      std::size_t train_regions);

  /// The prepared app for `req`'s (app, scale, work), from the cache or
  /// built by this call. Single flight: concurrent callers for one key
  /// wait for one build. A failed preparation (an `error`, or an
  /// exception, which is rethrown to every waiter) is handed to everyone
  /// waiting on it but not retained, so the next request builds afresh.
  std::shared_ptr<const PreparedApp> Prepared(const PlacementRequest& req);

  /// One cache-missing canonical request that needs a simulation.
  struct Job {
    std::string key;  // CanonicalKey(req)
    PlacementRequest req;
    std::shared_ptr<std::promise<PlacementResult>> promise;
  };

  /// Pool job for one request: prepared app from the cache, then RunPrepared.
  void RunJob(const Job& job);

  /// Front half of every submission: canonicalize, serve cache hits,
  /// join an identical in-flight request. Returns the ticket; when a
  /// simulation must run, `*job` receives it (already registered as in
  /// flight) for Dispatch.
  Ticket Admit(PlacementRequest request, Callback done,
               std::optional<Job>* job);

  /// Enqueue `job` as one pool job (RunJob), carrying the submitter's
  /// trace context. If the pool is shutting down, the job fails at once
  /// with its canonical request in the result, so no waiter hangs.
  void Dispatch(Job job);

  /// Publish one finished job result: cache insert, in-flight retirement,
  /// stats, promise resolution, queued callbacks. `simulated` is false
  /// for jobs the pool rejected.
  void FinishJob(const Job& job, PlacementResult result,
                 bool simulated = true);

  /// One in-flight simulation: the shared future every coalesced Submit()
  /// returned, plus the continuations attached by SubmitAsync().
  struct InFlight {
    std::shared_future<PlacementResult> future;
    std::vector<Callback> callbacks;
  };

  Ticket SubmitInternal(PlacementRequest request, Callback done);

  /// A prepared-app cache entry: the (possibly still building) instance
  /// and its recency. Only ready entries count toward the capacity or are
  /// evicted; a building entry is removed only by its builder.
  struct AppSlot {
    std::shared_future<std::shared_ptr<const PreparedApp>> prepared;
    std::uint64_t last_use = 0;  // app_clock_ tick
    bool ready = false;
  };

  Config config_;
  ResultCache cache_;

  mutable std::mutex mu_;  // guards inflight_ + counters
  std::unordered_map<std::string, InFlight> inflight_;
  std::uint64_t submitted_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t simulated_ = 0;
  std::uint64_t failed_ = 0;

  std::mutex train_mu_;  // serializes training; guards systems_
  std::map<std::size_t, std::shared_ptr<const core::MerchandiserSystem>>
      systems_;
  /// Guards builtin_system_, the decoded default-budget system; never
  /// held together with train_mu_.
  std::mutex builtin_mu_;
  std::shared_ptr<const core::MerchandiserSystem> builtin_system_;

  mutable std::mutex apps_mu_;  // guards apps_ + the app counters
  std::unordered_map<std::string, AppSlot> apps_;  // key: (app, scale, work)
  std::uint64_t app_clock_ = 0;
  std::uint64_t app_builds_ = 0;
  std::uint64_t app_evictions_ = 0;

  ThreadPool pool_;  // last member: jobs may touch everything above
};

}  // namespace merch::service
