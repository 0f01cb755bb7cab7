#include "service/placement_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <tuple>
#include <utility>

#include "analysis/depgraph.h"
#include "analysis/ir.h"
#include "analysis/lint.h"
#include "analysis/passes.h"
#include "analysis/summaries.h"
#include "apps/registry.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "baselines/static_priority.h"
#include "obs/distributed/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/model_artifact.h"
#include "sim/policy.h"

namespace merch::service {

PlacementService::PlacementService(Config config)
    : config_(config),
      cache_(config.cache_capacity),
      pool_(config.threads, config.queue_capacity) {}

PlacementService::~PlacementService() { Shutdown(); }

void PlacementService::Shutdown() { pool_.Shutdown(); }

PlacementService::Ticket PlacementService::Submit(PlacementRequest request) {
  return SubmitInternal(std::move(request), nullptr);
}

namespace {

/// Prepared-app identity: exactly what PrepareApp reads. Policy, seed and
/// train_regions are left out on purpose — they only pick the engine's
/// SimConfig and policy object.
std::string AppKey(const PlacementRequest& req) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g", req.app.c_str(), req.scale,
                req.work);
  return buf;
}

std::shared_future<PlacementResult> Ready(PlacementResult result) {
  std::promise<PlacementResult> p;
  p.set_value(std::move(result));
  return p.get_future().share();
}

/// The service's policy switch: the engine policy `req` names against
/// `prepared`, or null with `*error` set for a policy the app does not
/// define (e.g. 'sparta' without a priority list) or 'merch' without a
/// trained `system`. May throw on construction failure. The policy may
/// reference `prepared` and `system`, which must outlive it.
std::unique_ptr<sim::PlacementPolicy> MakeRequestPolicy(
    const PlacementService::PreparedApp& prepared, const PlacementRequest& req,
    const core::MerchandiserSystem* system, std::string* error) {
  const apps::AppBundle& bundle = prepared.bundle;
  if (req.policy == "pm") {
    return std::make_unique<baselines::PmOnlyPolicy>();
  }
  if (req.policy == "mm") {
    return std::make_unique<baselines::MemoryModePolicy>();
  }
  if (req.policy == "mo") {
    return std::make_unique<baselines::MemoryOptimizerPolicy>();
  }
  if (req.policy == "sparta") {
    if (bundle.sparta_priority.empty()) {
      *error = "policy 'sparta' is not defined for app " + req.app;
      return nullptr;
    }
    return std::make_unique<baselines::StaticPriorityPolicy>(
        "Sparta-like", bundle.sparta_priority);
  }
  if (req.policy == "warpx-pm") {
    if (bundle.lifetime_priority.empty()) {
      *error = "policy 'warpx-pm' is not defined for app " + req.app;
      return nullptr;
    }
    return std::make_unique<baselines::StaticPriorityPolicy>(
        "WarpX-PM", bundle.lifetime_priority);
  }
  if (req.policy == "merch") {
    if (system == nullptr) {
      *error = "policy 'merch' needs a trained MerchandiserSystem";
      return nullptr;
    }
    if (!prepared.homogeneous_error.empty()) {
      *error = prepared.homogeneous_error;
      return nullptr;
    }
    return system->MakePolicy(prepared.homogeneous);
  }
  *error = "unknown policy '" + req.policy + "'";
  return nullptr;
}

}  // namespace

std::vector<PlacementService::Ticket> PlacementService::SubmitBatch(
    std::vector<PlacementRequest> requests) {
  struct Queued {
    std::size_t block = 0;  // instance index / kPreparedAppCapacity
    std::size_t rank = 0;   // earlier jobs of the same instance
    Job job;
  };
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  std::vector<Queued> queued;
  // AppKey -> (first-appearance index among this batch's jobs, jobs so far)
  std::unordered_map<std::string, std::pair<std::size_t, std::size_t>> seen;
  for (PlacementRequest& request : requests) {
    std::optional<Job> job;
    tickets.push_back(Admit(std::move(request), nullptr, &job));
    if (!job) continue;
    const std::size_t next_instance = seen.size();
    auto& [instance, count] =
        seen.try_emplace(AppKey(job->req), next_instance, 0).first->second;
    queued.push_back(
        Queued{instance / kPreparedAppCapacity, count++, std::move(*job)});
  }
  std::stable_sort(queued.begin(), queued.end(),
                   [](const Queued& a, const Queued& b) {
                     return std::tie(a.block, a.rank) <
                            std::tie(b.block, b.rank);
                   });
  for (Queued& q : queued) Dispatch(std::move(q.job));
  return tickets;
}

PlacementService::Ticket PlacementService::SubmitAsync(
    PlacementRequest request, Callback done) {
  return SubmitInternal(std::move(request), std::move(done));
}

PlacementService::Ticket PlacementService::SubmitInternal(
    PlacementRequest request, Callback done) {
  std::optional<Job> job;
  Ticket ticket = Admit(std::move(request), std::move(done), &job);
  if (job) Dispatch(std::move(*job));
  return ticket;
}

PlacementService::Ticket PlacementService::Admit(PlacementRequest request,
                                                 Callback done,
                                                 std::optional<Job>* job) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
  }
  MERCH_METRIC_COUNT("merch_service_submitted_total", 1);
  if (std::string err = CanonicalizeRequest(request); !err.empty()) {
    PlacementResult bad;
    bad.request = std::move(request);
    bad.error = std::move(err);
    ticket.future = Ready(std::move(bad));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++failed_;
    }
    MERCH_METRIC_COUNT("merch_service_failed_total", 1);
    if (done) done(ticket.future.get());
    return ticket;
  }
  std::string key = CanonicalKey(request);

  if (auto cached = cache_.Get(key)) {
    ticket.future = Ready(*std::move(cached));
    ticket.cache_hit = true;
    if (done) done(ticket.future.get());
    return ticket;
  }

  auto promise = std::make_shared<std::promise<PlacementResult>>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {  // incl. duplicates earlier in one batch
      ++coalesced_;
      ticket.future = it->second.future;
      ticket.coalesced = true;
      if (done) it->second.callbacks.push_back(std::move(done));
    } else {
      ticket.future = promise->get_future().share();
      InFlight entry;
      entry.future = ticket.future;
      if (done) entry.callbacks.push_back(std::move(done));
      inflight_.emplace(key, std::move(entry));
    }
  }
  if (ticket.coalesced) {
    MERCH_METRIC_COUNT("merch_service_coalesced_total", 1);
    MERCH_TRACE_INSTANT(obs::Category::kService, "service.coalesced");
    return ticket;
  }
  job->emplace(Job{std::move(key), std::move(request), std::move(promise)});
  return ticket;
}

void PlacementService::Dispatch(Job job) {
  // Capture the submitter's trace context (e.g. the server's per-request
  // context) so the simulation's spans join the caller's trace.
  const bool accepted =
      pool_.Submit([this, job, ctx = obs::CurrentTraceContext()] {
        obs::TraceContextScope scope(ctx);
        RunJob(job);
      });
  if (accepted) return;
  // Shutting down: fail the job instead of hanging it.
  PlacementResult bad;
  bad.request = job.req;
  bad.error = "service is shutting down";
  FinishJob(job, std::move(bad), /*simulated=*/false);
}

std::optional<PlacementResult> PlacementService::Peek(
    PlacementRequest request) {
  if (!CanonicalizeRequest(request).empty()) return std::nullopt;
  return cache_.Get(CanonicalKey(request));
}

std::size_t PlacementService::QueueDepth() const {
  return pool_.queue_depth();
}

std::shared_ptr<const PlacementService::PreparedApp>
PlacementService::Prepared(const PlacementRequest& req) {
  using Entry = std::shared_ptr<const PreparedApp>;
  const std::string key = AppKey(req);
  std::shared_future<Entry> prepared;
  std::optional<std::promise<Entry>> build;  // set when this call builds
  {
    std::lock_guard<std::mutex> lock(apps_mu_);
    auto it = apps_.find(key);
    if (it != apps_.end()) {
      it->second.last_use = ++app_clock_;
      prepared = it->second.prepared;
    } else {
      build.emplace();
      prepared = build->get_future().share();
      apps_.emplace(key, AppSlot{prepared, ++app_clock_, /*ready=*/false});
      ++app_builds_;
    }
  }
  if (!build) return prepared.get();  // waits for an in-flight build

  MERCH_METRIC_COUNT("merch_service_app_builds_total", 1);
  Entry built;
  std::exception_ptr failure;
  try {
    built = std::make_shared<const PreparedApp>(PrepareApp(req));
  } catch (...) {
    failure = std::current_exception();
  }
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(apps_mu_);
    auto it = apps_.find(key);  // only this call removes a building slot
    if (failure || !built->error.empty()) {
      apps_.erase(it);  // not retained: a transient failure must not stick
    } else {
      it->second.ready = true;
      // Least recently used first; building slots sort last, never evicted.
      auto older = [](const auto& a, const auto& b) {
        return a.second.ready &&
               (!b.second.ready || a.second.last_use < b.second.last_use);
      };
      std::size_t ready = 0;
      for (const auto& entry : apps_) ready += entry.second.ready ? 1 : 0;
      for (; ready > kPreparedAppCapacity; --ready, ++evicted) {
        // Running jobs keep their shared_ptr to an evicted app alive.
        apps_.erase(std::min_element(apps_.begin(), apps_.end(), older));
      }
      app_evictions_ += evicted;
    }
  }
  if (evicted > 0) {
    MERCH_METRIC_COUNT("merch_service_app_evictions_total", evicted);
  }
  if (failure) {
    build->set_exception(failure);
    std::rethrow_exception(failure);
  }
  build->set_value(built);
  return built;
}

void PlacementService::RunJob(const Job& job) {
  MERCH_TRACE_SPAN_VAR(request_span, obs::Category::kService,
                       "service.request");
  const auto t0 = std::chrono::steady_clock::now();
  PlacementResult result;
  try {
    std::shared_ptr<const core::MerchandiserSystem> system;
    if (job.req.policy == "merch") {
      system = TrainedSystem(job.req.train_regions);
    }
    result = RunPrepared(*Prepared(job.req), job.req, system.get());
  } catch (const std::exception& e) {  // a failed prepare or decode
    result.request = job.req;
    result.error = e.what();
  }
  FinishJob(job, std::move(result));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  MERCH_METRIC_OBSERVE_TRACED("merch_service_request_seconds", seconds);
}

void PlacementService::FinishJob(const Job& job, PlacementResult result,
                                 bool simulated) {
  if (result.ok()) cache_.Put(job.key, result);
  std::vector<Callback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(job.key);
    if (it != inflight_.end()) {
      callbacks = std::move(it->second.callbacks);
      inflight_.erase(it);
    }
    if (simulated) ++simulated_;
    if (!result.ok()) ++failed_;
  }
  if (simulated) MERCH_METRIC_COUNT("merch_service_simulated_total", 1);
  if (!result.ok()) MERCH_METRIC_COUNT("merch_service_failed_total", 1);
  // Resolve the shared future before running continuations, so a callback
  // that hands off to a future-waiting path observes a completed future.
  if (callbacks.empty()) {
    job.promise->set_value(std::move(result));
  } else {
    job.promise->set_value(result);
    for (Callback& cb : callbacks) cb(result);
  }
}

ServiceStats PlacementService::Stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.coalesced = coalesced_;
    s.simulated = simulated_;
    s.failed = failed_;
  }
  {
    std::lock_guard<std::mutex> lock(apps_mu_);
    s.app_builds = app_builds_;
    s.app_evictions = app_evictions_;
  }
  s.cache = cache_.Stats();
  s.threads = pool_.thread_count();
  return s;
}

std::shared_ptr<const core::MerchandiserSystem> PlacementService::TrainedSystem(
    std::size_t train_regions) {
  if (UsesBuiltinModel(train_regions)) {
    // A failed decode throws and leaves builtin_system_ null.
    std::lock_guard<std::mutex> lock(builtin_mu_);
    if (builtin_system_ == nullptr) {
      builtin_system_ = std::make_shared<const core::MerchandiserSystem>(
          ObtainSystem(train_regions));
    }
    return builtin_system_;
  }
  std::lock_guard<std::mutex> lock(train_mu_);
  auto it = systems_.find(train_regions);
  if (it != systems_.end()) return it->second;
  auto system = std::make_shared<const core::MerchandiserSystem>(
      ObtainSystem(train_regions));
  systems_.emplace(train_regions, system);
  return system;
}

sim::MachineSpec PlacementService::RequestMachine(const PlacementRequest& req) {
  sim::MachineSpec machine = sim::MachineSpec::Paper();
  for (auto tier : {hm::Tier::kDram, hm::Tier::kPm}) {
    machine.hm[tier].capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(machine.hm[tier].capacity_bytes) * req.scale);
  }
  return machine;
}

sim::SimConfig PlacementService::RequestSimConfig(const PlacementRequest& req) {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.05;
  // Downscaled footprints shrink the placement granularity with them so a
  // run still spans many pages (same rule merchctl has always applied).
  cfg.page_bytes =
      req.scale >= 0.5
          ? 2 * MiB
          : std::max<std::uint64_t>(
                64 * KiB,
                static_cast<std::uint64_t>(2.0 * MiB * req.scale * 16));
  cfg.migration_gbps = 2.0;
  cfg.seed = req.seed;
  return cfg;
}

PlacementService::PreparedApp PlacementService::PrepareApp(
    const PlacementRequest& req) {
  PreparedApp prepared;
  try {
    {
      MERCH_TRACE_SPAN(obs::Category::kService, "service.build_app");
      [[maybe_unused]] const auto t0 = std::chrono::steady_clock::now();
      prepared.bundle = apps::BuildApp(req.app, req.scale, req.work);
      MERCH_METRIC_OBSERVE(
          "merch_service_app_build_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }

    // Static-analysis gate: reject requests whose kernel IR carries
    // error-severity lint findings (e.g. a referenced object the app never
    // registered with LB_HM_config) — the runtime could not place it.
    const analysis::Module module = analysis::ModuleFromWorkload(
        prepared.bundle.workload, prepared.bundle.task_irs);
    std::vector<analysis::Finding> findings =
        analysis::Lint(module, analysis::Analyze(module));

    prepared.machine = RequestMachine(req);

    // Dependence gate: a provably racy task graph (a non-owner task
    // writing another task's object with exact overlap evidence) cannot
    // be placed meaningfully — the access counts themselves are
    // undefined. Rejected like lint errors.
    const analysis::TaskGraph graph =
        analysis::BuildTaskGraph(module, analysis::Summarize(module));
    const std::vector<analysis::Finding> dep =
        analysis::LintDependences(module, graph, prepared.machine.hm);
    findings.insert(findings.end(), dep.begin(), dep.end());

    if (analysis::HasErrors(findings)) {
      for (const analysis::Finding& f : findings) {
        if (f.severity != analysis::Severity::kError) continue;
        if (!prepared.error.empty()) prepared.error += "; ";
        prepared.error += "lint: [" + f.code + "] " + f.message;
      }
      return prepared;
    }
    try {
      prepared.homogeneous = core::HomogeneousPredictor::Prepare(
          prepared.bundle.workload, prepared.machine);
    } catch (const std::exception& e) {
      prepared.homogeneous_error = e.what();
    }
  } catch (const std::exception& e) {
    prepared.error = e.what();
  }
  return prepared;
}

PlacementService::Simulation PlacementService::Simulate(
    const PreparedApp& prepared, const PlacementRequest& req,
    const core::MerchandiserSystem* system) {
  Simulation out;
  if (!prepared.error.empty()) {
    out.error = prepared.error;
    return out;
  }
  try {
    out.policy = MakeRequestPolicy(prepared, req, system, &out.error);
    if (out.policy == nullptr) return out;
    const sim::Workload& workload = prepared.bundle.workload;
    sim::Engine engine(workload, prepared.machine, RequestSimConfig(req),
                       out.policy.get());
    out.result = engine.Run();
    out.dram_fractions.reserve(workload.objects.size());
    for (std::size_t i = 0; i < workload.objects.size(); ++i) {
      out.dram_fractions.push_back(engine.ObjectDramFraction(i));
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

PlacementResult PlacementService::RunPrepared(
    const PreparedApp& prepared, const PlacementRequest& req,
    const core::MerchandiserSystem* system) {
  PlacementResult out;
  out.request = req;
  Simulation run = Simulate(prepared, req, system);
  if (!run.error.empty()) {
    out.error = std::move(run.error);
    return out;
  }
  const sim::SimResult& r = run.result;
  out.makespan_seconds = r.total_seconds;
  out.task_cov = r.AverageCoV();
  out.migrated_bytes = static_cast<std::uint64_t>(r.migration.bytes_to_dram +
                                                  r.migration.bytes_to_pm);
  out.regions = r.regions.size();
  const std::vector<sim::ObjectDecl>& objects =
      prepared.bundle.workload.objects;
  out.placements.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    out.placements.push_back(
        {objects[i].name, objects[i].bytes, run.dram_fractions[i]});
  }
  return out;
}

}  // namespace merch::service
