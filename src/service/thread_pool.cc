#include "service/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace merch::service {

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity)
    : width_(std::max<std::size_t>(1, threads)),
      queue_capacity_(std::max<std::size_t>(1, queue_capacity)) {}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] {
      return shutdown_ || queue_.size() < queue_capacity_;
    });
    if (shutdown_) return false;
    queue_.push_back(std::move(job));
    ++accepted_;
    GrowLocked();
    MERCH_METRIC_GAUGE_SET("merch_pool_queue_depth", queue_.size());
  }
  MERCH_METRIC_COUNT("merch_pool_jobs_accepted_total", 1);
  MERCH_TRACE_INSTANT(obs::Category::kPool, "pool.enqueue");
  not_empty_.notify_one();
  return true;
}

bool ThreadPool::TrySubmit(std::function<void()> job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() >= queue_capacity_) return false;
    queue_.push_back(std::move(job));
    ++accepted_;
    GrowLocked();
    MERCH_METRIC_GAUGE_SET("merch_pool_queue_depth", queue_.size());
  }
  MERCH_METRIC_COUNT("merch_pool_jobs_accepted_total", 1);
  MERCH_TRACE_INSTANT(obs::Category::kPool, "pool.enqueue");
  not_empty_.notify_one();
  return true;
}

void ThreadPool::GrowLocked() {
  // An idle worker counts until it wakes, so each queued job beyond the
  // idle count needs a worker of its own.
  if (queue_.size() > idle_ && workers_.size() < width_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

std::size_t ThreadPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::Shutdown() {
  bool join_here = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    if (!joining_) joining_ = join_here = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  if (!join_here) return;  // another caller owns the joins
  // shutdown_ is set, so no submission starts a worker from here on.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::size_t ThreadPool::jobs_executed() const {
  std::unique_lock<std::mutex> lock(mu_);
  return executed_;
}

std::size_t ThreadPool::jobs_accepted() const {
  std::unique_lock<std::mutex> lock(mu_);
  return accepted_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      MERCH_METRIC_GAUGE_SET("merch_pool_queue_depth", queue_.size());
    }
    not_full_.notify_one();
    MERCH_TRACE_INSTANT(obs::Category::kPool, "pool.dequeue");
    MERCH_METRIC_GAUGE_ADD("merch_pool_active", 1);
    job();
    MERCH_METRIC_GAUGE_ADD("merch_pool_active", -1);
    MERCH_METRIC_COUNT("merch_pool_jobs_executed_total", 1);
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++executed_;
    }
  }
}

}  // namespace merch::service
