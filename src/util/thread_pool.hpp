// A small fixed-size worker pool for CPU-bound fan-out (the parallel exact
// solver's prefix tasks, the MP task graph's pump closures, the placement
// server's workers). Tasks are plain std::function<void()>; submit() is
// thread-safe, wait_idle() blocks until every submitted task has finished,
// and the pool is reusable across wait_idle() rounds.
//
// Scheduling: work stealing over per-worker deques. Each worker owns one
// deque; a task submitted *from* a pool worker is pushed onto that worker's
// own deque and popped LIFO (the task most recently produced is the one
// whose data is still hot), while a task submitted from outside the pool is
// placed round-robin across the deques. An idle worker first drains its own
// deque, then steals from its siblings' deques FIFO (the oldest — and, for
// divide-and-conquer producers, typically largest — unit of work migrates),
// so uneven-cost fan-outs rebalance instead of serializing behind a single
// shared queue and its mutex.
//
// Non-throwing contract: tasks must not throw. A task that lets an
// exception escape terminates the process, after printing a named
// "hetgrid: fatal: ThreadPool task threw ..." diagnostic to stderr —
// there is nowhere sensible to deliver the exception (the submitter may
// be gone, and half-finished sibling tasks cannot be unwound).
//
// Observability: when a metrics registry is installed (obs/metrics), the
// pool records a queue-depth gauge, task wait/run latency histograms, a
// submitted-task counter, and a cross-worker steal counter; when a
// profiler is running (obs/profiler), each task executes inside a
// "pool.task" span on a "worker-<i>" lane. With nothing installed the
// instrumentation is a pointer test.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hetgrid {

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (>= 1; pass resolve_threads(n) to map
  /// 0 to the hardware concurrency).
  explicit ThreadPool(unsigned threads);

  /// Drains every deque (pending tasks still run), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; runs on some worker, in no particular order relative
  /// to other tasks. From a pool worker the task goes onto that worker's
  /// own deque (LIFO); from any other thread it is placed round-robin.
  /// Wakes at most one worker, and only when one is actually parked — a
  /// worker that failed to find work re-checks the pending count before
  /// sleeping, so no wakeup is ever missed and none is wasted.
  void submit(std::function<void()> task);

  /// Enqueues all tasks and wakes at most min(tasks, parked workers)
  /// workers — the batched form of submit() for fan-out callers (TaskGraph
  /// releasing several ready tasks at once). From outside the pool the
  /// tasks are spread round-robin, one per deque, so a fan-out starts
  /// balanced before any stealing happens.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Blocks until every deque is empty and no task is executing.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Maps a user-facing thread-count request to a worker count: 0 means
  /// "all hardware threads" (at least 1), anything else is taken verbatim.
  static unsigned resolve_threads(unsigned requested);

 private:
  struct Item {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    bool timed = false;  // enqueued stamp taken (metrics were installed)
  };

  // One worker's deque. back is the LIFO end (local push/pop); front is
  // the FIFO end (steals). unique_ptr keeps addresses stable in the vector
  // and each mutex on its own allocation (no false sharing of the locks).
  struct Deque {
    std::mutex mu;
    std::deque<Item> items;
  };

  void worker_loop(unsigned index);
  void push_item(Item&& item, std::size_t target);
  bool try_pop_local(unsigned self, Item& out);
  bool try_steal(unsigned self, Item& out);
  void run_item(Item& item);
  void maybe_wake(std::size_t count);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::atomic<std::size_t> pending_{0};      // queued, not yet claimed
  std::atomic<std::size_t> outstanding_{0};  // queued + executing
  std::atomic<std::size_t> next_{0};         // round-robin external target
  std::atomic<bool> stop_{false};

  std::mutex sleep_mu_;              // guards waiting_ and the cv waits
  std::condition_variable cv_work_;  // signalled on submit and shutdown
  std::condition_variable cv_idle_;  // signalled when the pool goes idle
  std::size_t waiting_ = 0;          // workers parked in cv_work_.wait

  std::vector<std::thread> workers_;
};

}  // namespace hetgrid
