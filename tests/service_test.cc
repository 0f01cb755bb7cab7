// Placement-service subsystem tests: thread-pool ordering and shutdown,
// LRU eviction and key canonicalization, in-flight duplicate coalescing,
// request-file parsing, cross-pool-width determinism (the service must
// return bit-identical results whether it simulates on 1 thread or 8), the
// prepared-app cache (one build per instance, per-request seeds, eviction,
// shutdown rejections), batch submission (input-order answers,
// instance-first dispatch), the scale ceiling, one build-time observation
// per built instance, the built-in correlation function (decoded once
// per service, never waiting behind another budget's training), and a
// soak test: live heap follows the service's configuration, not its
// traffic.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch.h"
#include "service/model_artifact.h"
#include "service/placement_service.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/serialization.h"
#include "service/thread_pool.h"
#include "workloads/training.h"

namespace merch::service {
namespace {

// Small enough that one simulation finishes in well under a second, big
// enough that a job spans many epochs and pages.
PlacementRequest TinyRequest(std::string app, std::string policy,
                             std::uint64_t seed = 42) {
  PlacementRequest req;
  req.app = std::move(app);
  req.policy = std::move(policy);
  req.scale = 0.005;
  req.work = 0.02;
  req.train_regions = 6;
  req.seed = seed;
  return req;
}

PlacementResult MakeResult(double makespan) {
  PlacementResult r;
  r.makespan_seconds = makespan;
  return r;
}

// --- ThreadPool ---

TEST(ThreadPool, RunsEveryAcceptedJob) {
  std::atomic<int> count{0};
  ThreadPool pool(4, 8);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.jobs_accepted(), 100u);
  EXPECT_EQ(pool.jobs_executed(), 100u);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  std::vector<int> order;
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&order, i] { order.push_back(i); }));
  }
  pool.Shutdown();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ShutdownDrainsQueuedJobsBeforeJoining) {
  std::atomic<int> count{0};
  ThreadPool pool(1, 64);
  ASSERT_TRUE(pool.Submit(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();  // must run the 10 queued jobs, not drop them
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RejectsSubmissionAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_EQ(pool.jobs_accepted(), 0u);
}

TEST(ThreadPool, BoundedQueueAppliesBackpressureWithoutDeadlock) {
  std::atomic<int> count{0};
  ThreadPool pool(2, 2);  // queue much smaller than the burst
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.Submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++count;
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 64);
}

// --- ResultCache ---

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Put("a", MakeResult(1));
  cache.Put("b", MakeResult(2));
  ASSERT_TRUE(cache.Get("a").has_value());  // bump "a": "b" is now LRU
  cache.Put("c", MakeResult(3));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  const CacheStats s = cache.Stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ResultCache, CountsHitsAndMisses) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.Get("x").has_value());
  cache.Put("x", MakeResult(7));
  const auto hit = cache.Get("x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->makespan_seconds, 7.0);
  const CacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ResultCache, PutExistingKeyOverwritesAndRefreshes) {
  ResultCache cache(2);
  cache.Put("a", MakeResult(1));
  cache.Put("b", MakeResult(2));
  cache.Put("a", MakeResult(10));  // refresh "a": "b" becomes LRU
  cache.Put("c", MakeResult(3));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_EQ(cache.Get("a")->makespan_seconds, 10.0);
}

// --- Canonicalization ---

TEST(Canonicalize, ResolvesAppCaseInsensitively) {
  PlacementRequest req = TinyRequest("spgemm", "PM");
  ASSERT_EQ(CanonicalizeRequest(req), "");
  EXPECT_EQ(req.app, "SpGEMM");
  EXPECT_EQ(req.policy, "pm");

  PlacementRequest other = TinyRequest("SPGEMM", "pm");
  ASSERT_EQ(CanonicalizeRequest(other), "");
  EXPECT_EQ(CanonicalKey(req), CanonicalKey(other));
}

TEST(Canonicalize, CollapsesTrainingBudgetForPoliciesThatNeverTrain) {
  PlacementRequest a = TinyRequest("BFS", "pm");
  a.train_regions = 100;
  PlacementRequest b = TinyRequest("BFS", "pm");
  b.train_regions = 281;
  ASSERT_EQ(CanonicalizeRequest(a), "");
  ASSERT_EQ(CanonicalizeRequest(b), "");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));

  PlacementRequest m1 = TinyRequest("BFS", "merch");
  m1.train_regions = 100;
  PlacementRequest m2 = TinyRequest("BFS", "merch");
  m2.train_regions = 281;
  ASSERT_EQ(CanonicalizeRequest(m1), "");
  ASSERT_EQ(CanonicalizeRequest(m2), "");
  EXPECT_NE(CanonicalKey(m1), CanonicalKey(m2));
}

TEST(Canonicalize, DistinguishesEveryRequestField) {
  PlacementRequest base = TinyRequest("DMRG", "mo");
  ASSERT_EQ(CanonicalizeRequest(base), "");
  for (auto mutate : {+[](PlacementRequest& r) { r.app = "BFS"; },
                      +[](PlacementRequest& r) { r.policy = "mm"; },
                      +[](PlacementRequest& r) { r.scale *= 2; },
                      +[](PlacementRequest& r) { r.work *= 2; },
                      +[](PlacementRequest& r) { r.seed += 1; }}) {
    PlacementRequest changed = base;
    mutate(changed);
    ASSERT_EQ(CanonicalizeRequest(changed), "");
    EXPECT_NE(CanonicalKey(changed), CanonicalKey(base));
  }
}

TEST(Canonicalize, RejectsBadFieldsWithClearMessages) {
  PlacementRequest bad_app = TinyRequest("NoSuchApp", "pm");
  EXPECT_NE(CanonicalizeRequest(bad_app).find("unknown application"),
            std::string::npos);

  PlacementRequest bad_policy = TinyRequest("SpGEMM", "fastest");
  EXPECT_NE(CanonicalizeRequest(bad_policy).find("unknown policy"),
            std::string::npos);

  PlacementRequest bad_scale = TinyRequest("SpGEMM", "pm");
  bad_scale.scale = 0;
  EXPECT_NE(CanonicalizeRequest(bad_scale), "");

  // `> 0` alone admits infinity, and an infinite scale or work never
  // finishes simulating.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double inf : {kInf, -kInf}) {
    PlacementRequest inf_scale = TinyRequest("SpGEMM", "pm");
    inf_scale.scale = inf;
    EXPECT_NE(CanonicalizeRequest(inf_scale).find("scale must be finite"),
              std::string::npos)
        << inf;
    PlacementRequest inf_work = TinyRequest("SpGEMM", "pm");
    inf_work.work = inf;
    EXPECT_NE(CanonicalizeRequest(inf_work).find("work must be finite"),
              std::string::npos)
        << inf;
  }

  // Memory grows with the scale, and past 2^64 bytes the capacity and
  // footprint casts are undefined: 1e19 and 1e300 used to answer a wrong
  // makespan, 1e6 std::bad_alloc.
  for (const double too_big :
       {std::nextafter(kMaxScale, 2 * kMaxScale), 1e6, 1e19, 1e300,
        std::numeric_limits<double>::max()}) {
    PlacementRequest big = TinyRequest("SpGEMM", "pm");
    big.scale = too_big;
    EXPECT_NE(CanonicalizeRequest(big).find("scale must be at most 4"),
              std::string::npos)
        << too_big;
  }
  PlacementRequest scale_ceiling = TinyRequest("SpGEMM", "pm");
  scale_ceiling.scale = kMaxScale;
  EXPECT_EQ(CanonicalizeRequest(scale_ceiling), "");

  // Run time grows linearly with the work: 1e6 never finished.
  for (const double too_much :
       {std::nextafter(kMaxWork, 2 * kMaxWork), 1e6, 1e300}) {
    PlacementRequest big = TinyRequest("DMRG", "pm");
    big.work = too_much;
    EXPECT_NE(CanonicalizeRequest(big).find("work must be at most 4"),
              std::string::npos)
        << too_much;
  }
  PlacementRequest work_ceiling = TinyRequest("DMRG", "pm");
  work_ceiling.work = kMaxWork;
  EXPECT_EQ(CanonicalizeRequest(work_ceiling), "");

  PlacementRequest bad_train = TinyRequest("SpGEMM", "merch");
  bad_train.train_regions = 0;
  EXPECT_NE(CanonicalizeRequest(bad_train), "");

  // Training time grows with the budget and holds the training lock, and
  // a negative budget parsed as unsigned wraps to SIZE_MAX.
  for (const std::size_t too_many :
       {std::size_t{1025}, std::numeric_limits<std::size_t>::max()}) {
    PlacementRequest big = TinyRequest("SpGEMM", "merch");
    big.train_regions = too_many;
    EXPECT_NE(CanonicalizeRequest(big).find("1024"), std::string::npos)
        << too_many;
  }
  PlacementRequest ceiling = TinyRequest("SpGEMM", "merch");
  ceiling.train_regions = 1024;
  EXPECT_EQ(CanonicalizeRequest(ceiling), "");
  EXPECT_EQ(ceiling.train_regions, 1024u);
}

// --- Request-file parsing ---

TEST(ParseRequestLine, ParsesKeyValueTokensInAnyOrder) {
  PlacementRequest req;
  std::string err;
  ASSERT_EQ(ParseRequestLine(
                "seed=9 app=BFS scale=0.25 policy=mo work=0.5 train_regions=3",
                &req, &err),
            ParseStatus::kRequest);
  EXPECT_EQ(req.app, "BFS");
  EXPECT_EQ(req.policy, "mo");
  EXPECT_EQ(req.scale, 0.25);
  EXPECT_EQ(req.work, 0.5);
  EXPECT_EQ(req.train_regions, 3u);
  EXPECT_EQ(req.seed, 9u);
}

TEST(ParseRequestLine, SkipsBlankAndCommentLines) {
  PlacementRequest req;
  std::string err;
  EXPECT_EQ(ParseRequestLine("", &req, &err), ParseStatus::kSkip);
  EXPECT_EQ(ParseRequestLine("   ", &req, &err), ParseStatus::kSkip);
  EXPECT_EQ(ParseRequestLine("# app=BFS", &req, &err), ParseStatus::kSkip);
}

TEST(ParseRequestLine, ReportsMalformedTokens) {
  PlacementRequest req;
  std::string err;
  EXPECT_EQ(ParseRequestLine("app=BFS bogus", &req, &err),
            ParseStatus::kError);
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_EQ(ParseRequestLine("scale=fast", &req, &err), ParseStatus::kError);
  EXPECT_EQ(ParseRequestLine("speed=1.0", &req, &err), ParseStatus::kError);
  // Numbers are strict: no sign, no trailing characters, no range error.
  for (const char* line :
       {"seed=-1", "seed=+1", "seed=12abc", "seed=18446744073709551616",
        "seed=0x10", "train_regions=-6", "scale=-0.5", "scale=0.02x",
        "scale=1e400", "work="}) {
    EXPECT_EQ(ParseRequestLine(line, &req, &err), ParseStatus::kError)
        << line;
  }
}

// --- PlacementService ---

TEST(PlacementService, InvalidRequestYieldsReadyErrorFuture) {
  PlacementService svc({.threads = 1});
  auto ticket = svc.Submit(TinyRequest("NoSuchApp", "pm"));
  const PlacementResult r = ticket.future.get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown application"), std::string::npos);
  EXPECT_EQ(svc.Stats().failed, 1u);

  // A scale above the ceiling is refused before anything is built.
  PlacementRequest huge = TinyRequest("BFS", "pm");
  huge.scale = 1e19;
  const PlacementResult refused = svc.Submit(huge).future.get();
  EXPECT_NE(refused.error.find("scale must be at most"), std::string::npos)
      << refused.error;
  // So is a work above its ceiling.
  PlacementRequest endless = TinyRequest("DMRG", "pm");
  endless.work = 1e6;
  const PlacementResult refused_work = svc.Submit(endless).future.get();
  EXPECT_NE(refused_work.error.find("work must be at most"),
            std::string::npos)
      << refused_work.error;
  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.simulated, 0u);
  EXPECT_EQ(stats.app_builds, 0u);
}

TEST(PlacementService, CoalescesConcurrentDuplicatesIntoOneSimulation) {
  PlacementService svc({.threads = 1});
  // Occupy the single worker so the duplicates below stay in flight.
  auto blocker = svc.Submit(TinyRequest("SpGEMM", "pm"));

  const PlacementRequest dup = TinyRequest("BFS", "pm");
  std::vector<PlacementService::Ticket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(svc.Submit(dup));

  std::size_t coalesced = 0;
  for (const auto& t : tickets) coalesced += t.coalesced ? 1 : 0;
  EXPECT_EQ(coalesced, 4u);  // first starts the job, the rest join it

  const PlacementResult first = tickets[0].future.get();
  ASSERT_TRUE(first.ok());
  for (auto& t : tickets) {
    const PlacementResult r = t.future.get();
    EXPECT_EQ(r.makespan_seconds, first.makespan_seconds);
  }
  blocker.future.wait();

  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_EQ(stats.simulated, 2u);  // blocker + one shared duplicate job

  // Identical request after completion: served from cache, no new job.
  auto cached = svc.Submit(dup);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.future.get().makespan_seconds, first.makespan_seconds);
  EXPECT_EQ(svc.Stats().simulated, 2u);
}

TEST(PlacementService, ResultsAreBitIdenticalAcrossPoolWidths) {
  const std::vector<PlacementRequest> requests = {
      TinyRequest("SpGEMM", "pm", 9), TinyRequest("BFS", "mo", 9),
      TinyRequest("WarpX", "mm", 9), TinyRequest("DMRG", "merch", 9)};

  PlacementService narrow({.threads = 1});
  PlacementService wide({.threads = 8});
  const BatchReport a = RunBatch(narrow, requests);
  const BatchReport b = RunBatch(wide, requests);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const PlacementResult& ra = a.results[i];
    const PlacementResult& rb = b.results[i];
    ASSERT_TRUE(ra.ok()) << ra.error;
    ASSERT_TRUE(rb.ok()) << rb.error;
    // Exact floating-point equality on purpose: same request + seed must
    // reproduce bit-identical results regardless of service concurrency.
    EXPECT_EQ(ra.makespan_seconds, rb.makespan_seconds);
    EXPECT_EQ(ra.task_cov, rb.task_cov);
    EXPECT_EQ(ra.migrated_bytes, rb.migrated_bytes);
    ASSERT_EQ(ra.placements.size(), rb.placements.size());
    for (std::size_t j = 0; j < ra.placements.size(); ++j) {
      EXPECT_EQ(ra.placements[j].object, rb.placements[j].object);
      EXPECT_EQ(ra.placements[j].dram_fraction,
                rb.placements[j].dram_fraction);
    }
  }
}

// --- prepared-app cache ---

// A fresh, cache-free answer for `req`: its own preparation and run.
PlacementResult FreshAnswer(PlacementRequest req) {
  EXPECT_EQ(CanonicalizeRequest(req), "");
  std::unique_ptr<core::MerchandiserSystem> system;
  if (req.policy == "merch") {
    workloads::TrainingConfig training;
    training.num_regions = req.train_regions;
    system = std::make_unique<core::MerchandiserSystem>(
        core::MerchandiserSystem::Train(training));
  }
  return PlacementService::RunPrepared(PlacementService::PrepareApp(req), req,
                                      system.get());
}

TEST(PlacementService, PreparedAppCacheBuildsEachInstanceOnce) {
  // 4 policies x 4 seeds over one (app, scale, work): 16 result-cache
  // misses on 8 threads, racing for one prepared app and then reading it
  // concurrently (NWChem-TC has a Zipf-heat object, so every engine
  // evaluates the shared HeatProfile).
  std::vector<PlacementRequest> requests;
  for (std::uint64_t seed : {21, 22, 23, 24}) {
    for (const char* policy : {"pm", "mm", "mo", "merch"}) {
      requests.push_back(TinyRequest("NWChem-TC", policy, seed));
    }
  }
  PlacementService svc({.threads = 8});
  std::vector<PlacementService::Ticket> tickets;
  for (const PlacementRequest& req : requests) {
    tickets.push_back(svc.Submit(req));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlacementResult got = tickets[i].future.get();
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_TRUE(BitIdentical(got, FreshAnswer(requests[i]))) << i;
  }
  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.simulated, requests.size());
  EXPECT_EQ(stats.app_builds, 1u);
  EXPECT_EQ(stats.app_evictions, 0u);
}

TEST(PlacementService, PreparedAppCacheKeepsEachRequestsSeed) {
  // Same app instance, different seeds: each run derives its own
  // SimConfig (a PreparedApp holds none), and each answer, its echoed
  // request included, equals that request's own fresh answer.
  const PlacementRequest a = TinyRequest("WarpX", "merch", 31);
  const PlacementRequest b = TinyRequest("WarpX", "merch", 32);
  PlacementService svc({.threads = 1});
  const PlacementResult ra = svc.Submit(a).future.get();
  const PlacementResult rb = svc.Submit(b).future.get();
  ASSERT_TRUE(ra.ok()) << ra.error;
  ASSERT_TRUE(rb.ok()) << rb.error;
  EXPECT_TRUE(BitIdentical(ra, FreshAnswer(a)));
  EXPECT_TRUE(BitIdentical(rb, FreshAnswer(b)));
  EXPECT_EQ(svc.Stats().app_builds, 1u);
}

// More (app, scale) instances of the cheap apps than the prepared-app
// cache holds, then the first instance again under another policy.
std::vector<PlacementRequest> WiderThanTheAppCache() {
  std::vector<PlacementRequest> requests;
  for (const char* app : {"NWChem-TC", "WarpX", "DMRG"}) {
    for (double scale : {0.002, 0.003, 0.004, 0.005, 0.006, 0.007}) {
      PlacementRequest req = TinyRequest(app, "pm");
      req.scale = scale;
      requests.push_back(req);
    }
  }
  PlacementRequest again = requests.front();
  again.policy = "mo";
  requests.push_back(again);
  return requests;
}

TEST(PlacementService, PreparedAppCacheEvictsBeyondCapacityWithSameAnswers) {
  // Submitted one by one, the first instance is the least recently used
  // when the cache overflows, so its second request builds it afresh.
  const std::vector<PlacementRequest> requests = WiderThanTheAppCache();
  const std::size_t instances = requests.size() - 1;
  ASSERT_GT(instances, PlacementService::kPreparedAppCapacity);

  PlacementService svc({.threads = 1});  // one worker: a fixed LRU order
  std::vector<PlacementService::Ticket> tickets;
  for (const PlacementRequest& req : requests) {
    tickets.push_back(svc.Submit(req));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlacementResult got = tickets[i].future.get();
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_TRUE(BitIdentical(got, FreshAnswer(requests[i]))) << i;
  }
  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.app_builds, instances + 1);
  EXPECT_EQ(stats.app_evictions,
            instances + 1 - PlacementService::kPreparedAppCapacity);
}

TEST(PlacementService, SubmitBatchWiderThanTheAppCacheBuildsEachInstanceOnce) {
  // The same requests as one batch: instances are ranked in blocks of the
  // cache's capacity, so the first instance's second job runs while the
  // instance is still cached, and each instance is built exactly once.
  const std::vector<PlacementRequest> requests = WiderThanTheAppCache();
  const std::size_t instances = requests.size() - 1;

  PlacementService svc({.threads = 1});
  const BatchReport report = RunBatch(svc, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(report.results[i].ok()) << report.results[i].error;
    EXPECT_TRUE(BitIdentical(report.results[i], FreshAnswer(requests[i])))
        << i;
  }
  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.app_builds, instances);
  EXPECT_EQ(stats.app_evictions,
            instances - PlacementService::kPreparedAppCapacity);
}

TEST(PlacementService, ShutdownRejectionsCarryTheirRequest) {
  PlacementService svc({.threads = 1});
  svc.Shutdown();
  const PlacementResult sync =
      svc.Submit(TinyRequest("SpGEMM", "mo")).future.get();
  EXPECT_FALSE(sync.ok());
  EXPECT_EQ(sync.error, "service is shutting down");
  EXPECT_EQ(sync.request.app, "SpGEMM");
  EXPECT_EQ(sync.request.policy, "mo");

  PlacementResult async;
  int calls = 0;
  svc.SubmitAsync(TinyRequest("dmrg", "pm"),
                  [&](const PlacementResult& r) {
                    async = r;
                    ++calls;
                  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(async.error, "service is shutting down");
  EXPECT_EQ(async.request.app, "DMRG");  // canonical spelling
  EXPECT_EQ(async.request.policy, "pm");
  EXPECT_EQ(svc.Stats().simulated, 0u);
}

TEST(PlacementService, SubmitBatchAnswersInInputOrderAndBuildsEachInstanceOnce) {
  // Two app instances, and one request repeated. Dispatch goes by rank
  // within each instance (both first jobs before any second one), but
  // admission keeps input order: ticket i answers request i, and the
  // repeat joins its first occurrence.
  const std::vector<PlacementRequest> requests = {
      TinyRequest("BFS", "pm", 13),   TinyRequest("BFS", "mo", 13),
      TinyRequest("BFS", "merch", 13), TinyRequest("WarpX", "pm", 13),
      TinyRequest("WarpX", "mm", 13), TinyRequest("BFS", "mo", 13)};
  PlacementService svc({.threads = 4});
  const std::vector<PlacementService::Ticket> tickets =
      svc.SubmitBatch(requests);
  ASSERT_EQ(tickets.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlacementResult got = tickets[i].future.get();
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.request.app, requests[i].app) << i;
    EXPECT_EQ(got.request.policy, requests[i].policy) << i;
    EXPECT_TRUE(BitIdentical(got, FreshAnswer(requests[i]))) << i;
  }
  EXPECT_FALSE(tickets[1].coalesced);
  EXPECT_TRUE(tickets[5].coalesced);

  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.simulated, requests.size() - 1);
  EXPECT_EQ(stats.app_builds, 2u);
  // Every answer landed in the result cache.
  for (const PlacementRequest& req : requests) {
    EXPECT_TRUE(svc.Submit(req).cache_hit) << req.app << " " << req.policy;
  }
}

TEST(PlacementService, SubmitIncrementalMatchesPerRequestSubmissionBitwise) {
  // A five-policy sweep over one SpGEMM instance, submitted as one batch
  // (the entry point that replaced SubmitIncremental): every answer,
  // placements included, must be bit-identical to a plain Submit().
  std::vector<PlacementRequest> requests = {
      TinyRequest("SpGEMM", "pm", 11),     TinyRequest("SpGEMM", "mm", 11),
      TinyRequest("SpGEMM", "mo", 11),     TinyRequest("SpGEMM", "sparta", 11),
      TinyRequest("SpGEMM", "merch", 11)};

  PlacementService batch_svc({.threads = 2});
  auto tickets = batch_svc.SubmitBatch(requests);
  ASSERT_EQ(tickets.size(), requests.size());

  PlacementService plain_svc({.threads = 2});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlacementResult a = tickets[i].future.get();
    const PlacementResult b = plain_svc.Submit(requests[i]).future.get();
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds) << i;
    EXPECT_EQ(a.task_cov, b.task_cov) << i;
    EXPECT_EQ(a.migrated_bytes, b.migrated_bytes) << i;
    EXPECT_EQ(a.regions, b.regions) << i;
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (std::size_t j = 0; j < a.placements.size(); ++j) {
      EXPECT_EQ(a.placements[j].object, b.placements[j].object);
      EXPECT_EQ(a.placements[j].bytes, b.placements[j].bytes);
      EXPECT_EQ(a.placements[j].dram_fraction, b.placements[j].dram_fraction);
    }
  }

  // The five-policy ladder shares one prepared instance.
  const ServiceStats stats = batch_svc.Stats();
  EXPECT_EQ(stats.app_builds, 1u);
  EXPECT_EQ(stats.simulated, requests.size());

  // Completed batch answers land in the shared result cache.
  auto cached = batch_svc.Submit(requests[0]);
  EXPECT_TRUE(cached.cache_hit);
}

TEST(PlacementService, IncrementalBatchModeAndCkptHatch) {
  // RunBatch has a single mode and MERCH_CKPT is gone: a MERCH_CKPT=0 left
  // in the environment must change nothing. Both batches build the shared
  // app once and answer bit-identically.
  const std::vector<PlacementRequest> requests = {
      TinyRequest("BFS", "pm", 13), TinyRequest("BFS", "mo", 13),
      TinyRequest("BFS", "merch", 13)};

  PlacementService first({.threads = 1});
  const BatchReport a = RunBatch(first, requests);

  ASSERT_EQ(setenv("MERCH_CKPT", "0", 1), 0);
  PlacementService second({.threads = 1});
  const BatchReport b = RunBatch(second, requests);
  ASSERT_EQ(unsetenv("MERCH_CKPT"), 0);

  for (const PlacementService* svc : {&first, &second}) {
    const ServiceStats stats = svc->Stats();
    EXPECT_EQ(stats.simulated, requests.size());
    EXPECT_EQ(stats.app_builds, 1u);
  }

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_TRUE(a.results[i].ok()) << a.results[i].error;
    ASSERT_TRUE(b.results[i].ok()) << b.results[i].error;
    EXPECT_EQ(a.results[i].makespan_seconds, b.results[i].makespan_seconds);
    EXPECT_EQ(a.results[i].task_cov, b.results[i].task_cov);
    EXPECT_EQ(a.results[i].migrated_bytes, b.results[i].migrated_bytes);
    EXPECT_TRUE(BitIdentical(a.results[i], b.results[i])) << i;
  }
}

#if defined(MERCH_OBS_ENABLED)
TEST(PlacementService, RecordsOneBuildObservationPerAppInstance) {
  auto observations = [] {
    return obs::MetricsRegistry::Instance()
        .GetHistogram("merch_service_app_build_seconds")
        .Count();
  };
  const std::uint64_t start = observations();
  // Two instances (two scales), each under two policies and two seeds:
  // eight result-cache misses racing on two threads for two builds.
  std::vector<PlacementRequest> requests;
  for (const double scale : {0.005, 0.01}) {
    for (const char* policy : {"pm", "mo"}) {
      for (const std::uint64_t seed : {1, 2}) {
        PlacementRequest req = TinyRequest("NWChem-TC", policy, seed);
        req.scale = scale;
        requests.push_back(req);
      }
    }
  }
  PlacementService svc({.threads = 2});
  std::vector<PlacementService::Ticket> tickets;
  for (const PlacementRequest& req : requests) {
    tickets.push_back(svc.Submit(req));
  }
  for (auto& t : tickets) ASSERT_TRUE(t.future.get().ok());
  EXPECT_EQ(observations() - start, 2u);
  EXPECT_EQ(svc.Stats().app_builds, 2u);

  // A prepared-app hit (new seed and policy, same instance) builds nothing.
  ASSERT_TRUE(
      svc.Submit(TinyRequest("NWChem-TC", "mm", 9)).future.get().ok());
  EXPECT_EQ(observations() - start, 2u);

  // merchctl run prepares through PrepareApp directly: one observation
  // and one service.build_app span per call.
  PlacementRequest direct = TinyRequest("DMRG", "pm");
  ASSERT_EQ(CanonicalizeRequest(direct), "");
  obs::TraceRecorder& rec = obs::TraceRecorder::Instance();
  rec.Start();
  ASSERT_EQ(PlacementService::PrepareApp(direct).error, "");
  rec.Stop();
  EXPECT_EQ(observations() - start, 3u);
  int spans = 0;
  for (const obs::TraceEvent& ev : rec.Snapshot()) {
    if (std::string(ev.name) == "service.build_app") ++spans;
  }
  EXPECT_EQ(spans, 1);
  EXPECT_NE(obs::MetricsRegistry::Instance().PrometheusText().find(
                "merch_service_app_build_seconds"),
            std::string::npos);
}
#endif

TEST(PlacementService, MerchRunsFromThePreparedHomogeneousProfile) {
  // The prepared app carries the §5.2 profile, and Simulate's merch run
  // (a policy made from that profile) runs exactly as a policy that
  // prepares the profile itself.
  PlacementRequest req = TinyRequest("SpGEMM", "merch");
  ASSERT_EQ(CanonicalizeRequest(req), "");
  const PlacementService::PreparedApp prepared =
      PlacementService::PrepareApp(req);
  ASSERT_EQ(prepared.error, "");
  ASSERT_EQ(prepared.homogeneous_error, "");
  EXPECT_TRUE(prepared.homogeneous.prepared());
  const core::MerchandiserSystem system = ObtainSystem(req.train_regions);
  const PlacementService::Simulation reused =
      PlacementService::Simulate(prepared, req, &system);
  ASSERT_EQ(reused.error, "");
  const auto fresh =
      system.MakePolicy(prepared.bundle.workload, prepared.machine);
  const sim::SimResult& a = reused.result;
  const sim::SimResult b =
      sim::Engine(prepared.bundle.workload, prepared.machine,
                  PlacementService::RequestSimConfig(req), fresh.get())
          .Run();
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].duration, b.regions[r].duration) << r;
  }
  EXPECT_EQ(a.migration.pages_to_dram, b.migration.pages_to_dram);
}

TEST(PlacementService, AppTooLargeForTheProfileFailsOnlyMerch) {
  // At scale 1e-5 SpGEMM fits the request's 64 KiB pages but not the
  // profile's 2 MiB ones. The engine refuses an object that fits neither
  // tier (it used to run on an unset handle), and only merch reads the
  // profile, so pm answers and merch answers an error.
  PlacementService svc({.threads = 1});
  PlacementRequest pm = TinyRequest("SpGEMM", "pm");
  pm.scale = 1e-5;
  PlacementRequest merch = pm;
  merch.policy = "merch";
  const PlacementResult pm_result = svc.Submit(pm).future.get();
  EXPECT_TRUE(pm_result.ok()) << pm_result.error;
  const PlacementResult merch_result = svc.Submit(merch).future.get();
  EXPECT_FALSE(merch_result.ok());
  EXPECT_NE(merch_result.error.find("does not fit the machine's memory"),
            std::string::npos)
      << merch_result.error;
  EXPECT_EQ(svc.Stats().app_builds, 1u);
}

TEST(PlacementService, SeedIsPartOfTheRequestIdentity) {
  PlacementService svc({.threads = 2});
  auto t1 = svc.Submit(TinyRequest("BFS", "mo", 1));
  auto t2 = svc.Submit(TinyRequest("BFS", "mo", 2));
  ASSERT_TRUE(t1.future.get().ok());
  ASSERT_TRUE(t2.future.get().ok());
  // Different seeds are different requests: no coalescing, no cache hit.
  EXPECT_FALSE(t2.cache_hit);
  EXPECT_FALSE(t2.coalesced);
  EXPECT_EQ(svc.Stats().simulated, 2u);
}

// --- built-in correlation function ---

PlacementRequest DefaultBudget(PlacementRequest req) {
  req.train_regions = workloads::TrainingConfig{}.num_regions;
  return req;
}

std::uint64_t Count(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name).Value();
}

// Deltas, because the registry is process-wide.
struct ModelCounts {
  std::uint64_t decodes =
      Count("merch_service_builtin_model_decodes_total");
  std::uint64_t trainings = Count("merch_service_trainings_total");
  std::uint64_t train_observations = obs::MetricsRegistry::Instance()
                                         .GetHistogram(
                                             "merch_service_train_seconds")
                                         .Count();
};

TEST(BuiltinModel, ConcurrentDefaultBudgetRequestsDecodeOnceAndAnswerAsF) {
  const PlacementRequest a = DefaultBudget(TinyRequest("DMRG", "merch", 5));
  const PlacementRequest b = DefaultBudget(TinyRequest("DMRG", "merch", 6));
  const ModelCounts before;
  PlacementService svc({.threads = 2});
  auto ta = svc.Submit(a);
  auto tb = svc.Submit(b);
  const PlacementResult ra = ta.future.get();
  const PlacementResult rb = tb.future.get();
  ASSERT_TRUE(ra.ok()) << ra.error;
  ASSERT_TRUE(rb.ok()) << rb.error;
#if defined(MERCH_OBS_ENABLED)
  const ModelCounts after;
  EXPECT_EQ(after.decodes - before.decodes, 1u);
  EXPECT_EQ(after.trainings - before.trainings, 0u);
#endif
  const core::MerchandiserSystem system = ObtainSystem(a.train_regions);
  for (const auto& [req, got] : {std::pair{a, ra}, std::pair{b, rb}}) {
    PlacementRequest canonical = req;
    ASSERT_EQ(CanonicalizeRequest(canonical), "");
    const PlacementResult fresh = PlacementService::RunPrepared(
        PlacementService::PrepareApp(canonical), canonical, &system);
    EXPECT_TRUE(BitIdentical(got, fresh)) << req.seed;
  }
}

TEST(BuiltinModel, DefaultBudgetNeverWaitsBehindATraining) {
  // A 64-region request trains under the training lock; a default-budget
  // request submitted right behind it must not queue on that lock (nor
  // train 281 regions itself).
  using Clock = std::chrono::steady_clock;
  PlacementRequest training = TinyRequest("WarpX", "merch", 7);
  training.train_regions = 64;
  const PlacementRequest builtin =
      DefaultBudget(TinyRequest("WarpX", "merch", 8));
  PlacementService svc({.threads = 2});
  const Clock::time_point t0 = Clock::now();
  std::atomic<double> builtin_s{0}, training_s{0};
  auto seconds_since = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto tt = svc.SubmitAsync(
      training, [&](const PlacementResult&) { training_s = seconds_since(); });
  auto tb = svc.SubmitAsync(
      builtin, [&](const PlacementResult&) { builtin_s = seconds_since(); });
  ASSERT_TRUE(tb.future.get().ok());
  ASSERT_TRUE(tt.future.get().ok());
  svc.Shutdown();  // every callback has run
  EXPECT_LT(builtin_s.load(), 0.25 * training_s.load())
      << "default budget " << builtin_s.load() << " s, 64-region training "
      << training_s.load() << " s";
}

#if defined(MERCH_OBS_ENABLED)
TEST(BuiltinModel, MetricsSayWhetherAServiceDecodedOrTrained) {
  const ModelCounts start;
  {
    PlacementService svc({.threads = 1});
    ASSERT_TRUE(svc.Submit(DefaultBudget(TinyRequest("DMRG", "merch")))
                    .future.get()
                    .ok());
  }
  const ModelCounts decoded;
  EXPECT_EQ(decoded.decodes - start.decodes, 1u);
  EXPECT_EQ(decoded.trainings - start.trainings, 0u);
  EXPECT_EQ(decoded.train_observations - start.train_observations, 0u);
  {
    PlacementService svc({.threads = 1});
    ASSERT_TRUE(svc.Submit(TinyRequest("DMRG", "merch")).future.get().ok());
  }
  const ModelCounts trained;
  EXPECT_EQ(trained.decodes - decoded.decodes, 0u);
  EXPECT_EQ(trained.trainings - decoded.trainings, 1u);
  EXPECT_EQ(trained.train_observations - decoded.train_observations, 1u);
  // All three series reach the Prometheus export.
  const std::string text = obs::MetricsRegistry::Instance().PrometheusText();
  for (const char* series :
       {"merch_service_builtin_model_decodes_total",
        "merch_service_trainings_total", "merch_service_train_seconds"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}
#endif

// --- bounded state ---

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Bytes the allocator has handed out and not taken back (not RSS, which
/// glibc's arena retention moves); 0 where the allocator cannot say.
std::size_t LiveHeapBytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

/// A long-lived service's memory must be a function of its configuration
/// (cache capacity, prepared apps, trained systems), not of how many
/// distinct requests it has answered. After a warm-up that fills every
/// bounded structure, 40 distinct-seed merch requests, each a cache miss
/// that decides every instance afresh, may grow the live heap by at most
/// 64 KiB: any per-request state that outlives its request fails this.
TEST(PlacementService, LiveHeapFollowsConfigurationNotTraffic) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators keep their own books";
  if (LiveHeapBytes() == 0) GTEST_SKIP() << "allocator reports no live heap";
  PlacementService svc({.threads = 1, .cache_capacity = 4});
  std::uint64_t seed = 1000;
  const auto answer = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      PlacementRequest req =
          DefaultBudget(TinyRequest("SpGEMM", "merch", seed++));
      req.scale = 0.01;
      const PlacementResult r = svc.Submit(req).future.get();
      if (!r.ok()) return r.error;
    }
    return std::string();
  };
  ASSERT_EQ(answer(8), "");
  const std::size_t before = LiveHeapBytes();
  ASSERT_EQ(answer(40), "");
  const std::size_t after = LiveHeapBytes();
  EXPECT_LE(after, before + 64 * KiB)
      << "live heap grew by " << (after - before) << " bytes over 40 requests";
}

}  // namespace
}  // namespace merch::service
