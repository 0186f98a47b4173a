// A small fixed-size worker pool for CPU-bound fan-out (the parallel exact
// solver's arrangement blocks, the MP task graph's pump closures, the
// placement server's connections and refinements). Tasks are plain
// std::function<void()>; submit() is thread-safe, wait_idle() blocks until
// every submitted task has finished, and the pool is reusable across
// wait_idle() rounds.
//
// Scheduling: one FIFO queue under one mutex. Idle workers take tasks in
// submission order. No producer depends on which worker runs what: the
// task graph keeps its own priority order and submits interchangeable
// pumps, and every other producer submits independent units of work.
//
// Non-throwing contract: tasks must not throw. A task that lets an
// exception escape terminates the process, after printing a named
// "hetgrid: fatal: ThreadPool task threw ..." diagnostic to stderr —
// there is nowhere sensible to deliver the exception (the submitter may
// be gone, and half-finished sibling tasks cannot be unwound).
//
// Observability: when a metrics registry is installed (obs/metrics), the
// pool records a queue-depth gauge, task wait/run latency histograms and
// a submitted-task counter; when a profiler is running (obs/profiler),
// each task executes inside a "pool.task" span on a "worker-<i>" lane.
// With nothing installed the instrumentation is a pointer test.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hetgrid {

class ThreadPool {
 public:
  /// Most workers one pool may start: each is an OS thread, so a mistyped
  /// count must fail instead of starting millions.
  static constexpr unsigned kMaxThreads = 256;

  /// Spawns exactly `threads` workers (1..kMaxThreads; pass
  /// resolve_threads(n) to map 0 to the hardware concurrency).
  explicit ThreadPool(unsigned threads);

  /// Drains the queue (pending tasks still run), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task at the back of the queue and wakes one worker.
  void submit(std::function<void()> task);

  /// Enqueues all tasks in order and wakes up to min(tasks, size())
  /// workers — the batched form of submit() for fan-out callers.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Maps a user-facing thread-count request to a worker count: 0 means
  /// "all hardware threads" (1..kMaxThreads), anything else is taken
  /// verbatim. A request above kMaxThreads is a PreconditionError.
  static unsigned resolve_threads(unsigned requested);

 private:
  struct Item {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    bool timed = false;  // enqueued stamp taken (metrics were installed)
  };

  void worker_loop(unsigned index);
  void run_item(Item& item);

  std::mutex mu_;               // guards queue_, running_ and stop_
  std::deque<Item> queue_;
  std::size_t running_ = 0;     // tasks taken off the queue, not finished
  bool stop_ = false;
  std::condition_variable cv_work_;  // signalled on submit and shutdown
  std::condition_variable cv_idle_;  // signalled when the pool goes idle

  std::vector<std::thread> workers_;
};

}  // namespace hetgrid
