#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace hetgrid {

namespace {

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void record_submit(MetricsRegistry* metrics, std::size_t count,
                   std::size_t depth) {
  if (metrics == nullptr) return;
  metrics->counter("pool.tasks_submitted").add(static_cast<double>(count));
  metrics->gauge("pool.queue_depth").set(static_cast<double>(depth));
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  HG_CHECK(threads >= 1, "ThreadPool needs at least one worker");
  HG_CHECK(threads <= kMaxThreads, "ThreadPool supports at most "
                                       << kMaxThreads << " workers, got "
                                       << threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MetricsRegistry* metrics = installed_metrics();
  Item item{std::move(task), {}, metrics != nullptr};
  if (item.timed) item.enqueued = std::chrono::steady_clock::now();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HG_CHECK(!stop_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(item));
    depth = queue_.size() + running_;
  }
  cv_work_.notify_one();
  record_submit(metrics, 1, depth);
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  MetricsRegistry* metrics = installed_metrics();
  std::chrono::steady_clock::time_point now;
  if (metrics != nullptr) now = std::chrono::steady_clock::now();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HG_CHECK(!stop_, "submit_batch on a stopping ThreadPool");
    for (std::function<void()>& task : tasks)
      queue_.push_back(Item{std::move(task), now, metrics != nullptr});
    depth = queue_.size() + running_;
  }
  const std::size_t wake = std::min(tasks.size(), workers_.size());
  for (std::size_t i = 0; i < wake; ++i) cv_work_.notify_one();
  record_submit(metrics, tasks.size(), depth);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

unsigned ThreadPool::resolve_threads(unsigned requested) {
  HG_CHECK(requested <= kMaxThreads, "at most " << kMaxThreads
                                                << " worker threads, got "
                                                << requested);
  if (requested != 0) return requested;
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
}

void ThreadPool::run_item(Item& item) {
  MetricsRegistry* metrics = installed_metrics();
  std::chrono::steady_clock::time_point run_start;
  if (metrics != nullptr) {
    run_start = std::chrono::steady_clock::now();
    if (item.timed)
      metrics->histogram("pool.task_wait_us")
          .record(us_between(item.enqueued, run_start));
  }
  {
    ProfScope span("pool.task");
    // Non-throwing contract: deliver a named diagnostic instead of the
    // anonymous terminate an escaping exception would otherwise cause.
    try {
      item.fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "hetgrid: fatal: ThreadPool task threw an exception "
                   "(tasks are noexcept by contract): %s\n",
                   e.what());
      std::terminate();
    } catch (...) {
      std::fprintf(stderr,
                   "hetgrid: fatal: ThreadPool task threw a non-standard "
                   "exception (tasks are noexcept by contract)\n");
      std::terminate();
    }
  }
  if (metrics != nullptr)
    metrics->histogram("pool.task_run_us")
        .record(us_between(run_start, std::chrono::steady_clock::now()));
}

void ThreadPool::worker_loop(unsigned index) {
  prof_set_thread_name("worker-" + std::to_string(index));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop requested and the queue drained
    Item item = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lock.unlock();
    run_item(item);
    item.fn = nullptr;  // release captures before the idle signal
    lock.lock();
    if (--running_ == 0 && queue_.empty()) cv_idle_.notify_all();
  }
}

}  // namespace hetgrid
