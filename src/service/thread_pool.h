// Worker pool of bounded width with a bounded job queue.
//
// The service layer runs placement simulations as jobs: each job owns its
// Engine/PageTable state, so jobs never share mutable simulator state and
// the pool needs no work stealing — a bounded MPMC queue in front of at
// most N workers is sufficient and keeps shutdown semantics simple.
// Workers start on demand: a submission starts one when more jobs wait
// than workers are idle, until N run, so an idle pool holds no threads
// (the shard router's forwarder pool is as wide as its connection
// ceiling). Submit() blocks when the queue is full (back-pressure toward
// batch drivers instead of unbounded memory growth) and Shutdown() drains
// every job that was accepted before joining the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace merch::service {

class ThreadPool {
 public:
  /// `threads` (the width) is clamped to at least 1. `queue_capacity`
  /// bounds the number of accepted-but-not-started jobs.
  explicit ThreadPool(std::size_t threads, std::size_t queue_capacity = 256);

  /// Joins after draining (equivalent to Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one job. Blocks while the queue is at capacity. Returns false
  /// (and drops the job) if the pool is shutting down.
  bool Submit(std::function<void()> job);

  /// Non-blocking Submit: returns false immediately when the queue is at
  /// capacity or the pool is shutting down. This is the admission-control
  /// primitive — callers that must not block (the net reactor, the shard
  /// router's accept path) shed load instead of queueing unboundedly.
  bool TrySubmit(std::function<void()> job);

  /// Jobs accepted but not yet started (point-in-time).
  std::size_t queue_depth() const;

  /// Stop accepting new jobs, run everything already accepted, join all
  /// workers. Idempotent; safe to call concurrently with Submit().
  void Shutdown();

  /// The width: the most workers the pool runs at once.
  std::size_t thread_count() const { return width_; }

  /// Jobs fully executed so far (monotonic).
  std::size_t jobs_executed() const;

  /// Jobs accepted by Submit() so far (monotonic).
  std::size_t jobs_accepted() const;

 private:
  void WorkerLoop();
  /// With mu_ held, after a push: start a worker when the queued jobs
  /// outnumber the idle workers and the pool is below its width.
  void GrowLocked();

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  const std::size_t width_;
  std::size_t queue_capacity_;
  std::size_t idle_ = 0;  // workers waiting for a job
  bool shutdown_ = false;
  bool joining_ = false;
  std::size_t executed_ = 0;
  std::size_t accepted_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace merch::service
