// Tests for the fixed-size worker pool behind the parallel exact solver,
// the MP task graph and the placement server.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 50);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    // No wait_idle: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ResolveThreadsZeroMeansHardware) {
  const unsigned n = ThreadPool::resolve_threads(0);
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
}

TEST(ThreadPool, RejectsMoreThanMaxThreadsBeforeStartingAny) {
  EXPECT_EQ(ThreadPool::resolve_threads(ThreadPool::kMaxThreads),
            ThreadPool::kMaxThreads);
  EXPECT_THROW(ThreadPool::resolve_threads(ThreadPool::kMaxThreads + 1),
               PreconditionError);
  EXPECT_THROW({ ThreadPool pool(ThreadPool::kMaxThreads + 1); },
               PreconditionError);
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  const std::thread::id main_id = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 100; ++i)
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  pool.wait_idle();
  EXPECT_FALSE(ids.contains(main_id));
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPool, WaitIdleWithEmptyQueueReturnsImmediately) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolDeathTest, TaskThatThrowsTerminatesWithANamedMessage) {
  // The pool's contract is that tasks are noexcept; a task that throws
  // must terminate the process with a diagnostic naming the pool, not
  // die in std::thread's anonymous std::terminate.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.submit([] { throw std::runtime_error("task boom"); });
        pool.wait_idle();
      },
      "ThreadPool task threw");
}

TEST(ThreadPool, SubmitBatchRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(500);
  for (int i = 0; i < 500; ++i)
    tasks.emplace_back(
        [&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.submit_batch(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, SubmitBatchEmptyIsANoOp) {
  ThreadPool pool(2);
  pool.submit_batch({});
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, SubmitBatchInterleavesWithSubmit) {
  // Batches larger than the worker count, alternated with single submits,
  // must neither drop nor duplicate tasks (exercises the counted wakeup).
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i)
      tasks.emplace_back(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.submit_batch(std::move(tasks));
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20 * 11);
}

TEST(ThreadPool, RecordsWaitLatencyHistogram) {
  // The task-wait-latency histogram (queue entry to execution start) must
  // record one sample per task, whether submitted singly or batched — the
  // regression guard for the wakeup-path changes.
  MetricsRegistry metrics;
  install_metrics(&metrics);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) pool.submit([] {});
    std::vector<std::function<void()>> tasks(8, [] {});
    pool.submit_batch(std::move(tasks));
    pool.wait_idle();
  }
  install_metrics(nullptr);
  EXPECT_EQ(metrics.counter("pool.tasks_submitted").value(), 16u);
  EXPECT_EQ(metrics.histogram("pool.task_wait_us").count(), 16u);
  EXPECT_EQ(metrics.histogram("pool.task_run_us").count(), 16u);
}

TEST(ThreadPool, QueuedTasksStartInSubmissionOrder) {
  // One worker, held by a gate task while the rest queue up behind it:
  // once the gate opens, the queued tasks start in the order they were
  // submitted, singly or batched.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::vector<int> order;  // touched by the single worker only
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 3; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  std::vector<std::function<void()>> tasks;
  for (int i = 3; i < 6; ++i)
    tasks.emplace_back([&order, i] { order.push_back(i); });
  pool.submit_batch(std::move(tasks));
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, IdleWorkerRunsTaskSubmittedByBusySibling) {
  // A task running on one worker submits a subtask and then refuses to
  // finish until the subtask has started — which only the other worker
  // can make happen. The subtask must run on a different thread.
  ThreadPool pool(2);
  std::atomic<bool> sub_started{false};
  std::thread::id owner_id, sub_id;
  pool.submit([&] {
    owner_id = std::this_thread::get_id();
    pool.submit([&] {
      sub_id = std::this_thread::get_id();
      sub_started.store(true);
    });
    while (!sub_started.load()) std::this_thread::yield();
  });
  pool.wait_idle();
  EXPECT_NE(owner_id, sub_id);
}

TEST(ThreadPool, UnevenBatchRebalancesAcrossWorkers) {
  // One long task and many short ones submitted as a single batch: the
  // short tasks must finish on the unblocked worker instead of
  // serializing behind the long one.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> short_done{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 64; ++i)
    tasks.emplace_back([&short_done] { short_done.fetch_add(1); });
  pool.submit_batch(std::move(tasks));
  // All short tasks complete while the long task still spins.
  while (short_done.load() < 64) std::this_thread::yield();
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(short_done.load(), 64);
}

TEST(ThreadPool, ManyProducersOneSink) {
  // Hammer submit() from several threads at once; every task must run
  // exactly once. (This is the pattern TSan watches in CI.)
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t)
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 250; ++i)
        pool.submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  for (std::thread& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

}  // namespace
}  // namespace hetgrid
