#include "util/task_graph.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace hetgrid {

TaskGraph::TaskGraph(unsigned threads)
    : threads_(ThreadPool::resolve_threads(threads)) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

TaskGraph::~TaskGraph() {
  wait_all();
  // Join the workers before mu_/cv_done_ die: the pump that completed the
  // final task can still be inside cv_done_.notify_all() when wait_all
  // returns, and destroying a condition variable with a notifier mid-call
  // is a race (caught by TSan). ~ThreadPool joins that worker first.
  pool_.reset();
}

void TaskGraph::set_observe(bool on) {
  HG_CHECK(tasks_.empty(), "TaskGraph::set_observe after the first add()");
  observe_ = on;
}

std::vector<TaskGraph::TaskId> TaskGraph::collect_deps(
    const std::vector<Key>& reads, const std::vector<Key>& writes) const {
  std::vector<TaskId> deps;
  for (const Key k : reads) {
    const auto w = last_writer_.find(k);
    if (w != last_writer_.end()) deps.push_back(w->second);
  }
  for (const Key k : writes) {
    const auto w = last_writer_.find(k);
    if (w != last_writer_.end()) deps.push_back(w->second);
    const auto r = readers_.find(k);
    if (r != readers_.end())
      deps.insert(deps.end(), r->second.begin(), r->second.end());
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

TaskGraph::TaskId TaskGraph::add(const char* name, std::vector<Key> reads,
                                 std::vector<Key> writes,
                                 std::function<void()> fn, int priority,
                                 double weight, std::uint64_t tag) {
  const TaskId id = tasks_.size();
  const std::vector<TaskId> deps = collect_deps(reads, writes);

  if (observe_) {
    // The heaviest chain among the dependencies extends through this task
    // (deps are sorted, so ties resolve to the lowest id deterministically).
    double base = 0.0;
    std::ptrdiff_t pred = -1;
    for (const TaskId d : deps) {
      if (records_[d].chain_cost > base) {
        base = records_[d].chain_cost;
        pred = static_cast<std::ptrdiff_t>(d);
      }
    }
    records_.push_back(TaskRecord{name, tag, weight, base + weight, pred});
  }

  // Advance the key history: this task is now the reader-of-record for its
  // read keys and the writer-of-record for its write keys.
  for (const Key k : reads) readers_[k].push_back(id);
  for (const Key k : writes) {
    last_writer_[k] = id;
    readers_[k].clear();
  }

  stats_.tasks += 1;
  stats_.edges += deps.size();

  MetricsRegistry* metrics = installed_metrics();
  if (metrics != nullptr) {
    metrics->counter("dag.tasks").add(1);
    metrics->counter("dag.edges").add(static_cast<double>(deps.size()));
  }

  if (pool_ == nullptr) {
    // Serial: submission order is a topological order (every dependency is
    // an earlier, already-executed task), so run inline. Depth still feeds
    // the critical-path statistic so it matches the threaded modes.
    std::size_t depth = 1;
    for (const TaskId d : deps) {
      HG_INTERNAL_CHECK(tasks_[d].done, "serial TaskGraph dep not done");
      depth = std::max(depth, tasks_[d].depth + 1);
    }
    Task& t = tasks_.emplace_back();
    t.name = name;
    t.priority = priority;
    t.depth = depth;
    stats_.critical_path = std::max(stats_.critical_path, depth);
    stats_.ready_at_submit += 1;
    if (metrics != nullptr) metrics->counter("dag.ready_at_submit").add(1);
    {
      ProfScope span(name);
      fn();
    }
    t.done = true;
    return id;
  }

  bool ready = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task& t = tasks_.emplace_back();
    t.fn = std::move(fn);
    t.name = name;
    t.priority = priority;
    std::size_t depth = 1;
    for (const TaskId d : deps) {
      depth = std::max(depth, tasks_[d].depth + 1);
      if (!tasks_[d].done) {
        tasks_[d].dependents.push_back(id);
        ++t.unmet;
      }
    }
    t.depth = depth;
    stats_.critical_path = std::max(stats_.critical_path, depth);
    ready = t.unmet == 0;
    if (ready) {
      ready_.push(ReadyEntry{priority, id});
      stats_.ready_at_submit += 1;
    } else {
      stats_.blocked_at_submit += 1;
    }
    if (metrics != nullptr) {
      metrics->counter(ready ? "dag.ready_at_submit" : "dag.blocked_at_submit")
          .add(1);
      metrics->gauge("dag.ready_depth")
          .set(static_cast<double>(ready_.size()));
    }
  }
  if (ready) pool_->submit([this] { pump(); });
  return id;
}

void TaskGraph::pump() {
  // Greedy drain: one pump closure is submitted per task pushed ready, but
  // a running pump keeps popping work itself instead of round-tripping
  // every task through the pool (a pump that finds the ready queue empty
  // because another worker drained it simply returns). Completing one task
  // and claiming the next share a single critical section, and when a
  // completion readies several tasks this worker keeps one and offers only
  // the rest to the pool — per-task scheduling cost is one lock
  // acquisition in the steady state, with no wakeup syscalls unless the
  // host is blocked on the completing task. The extra pumps go to the
  // pool's queue, where idle workers take them — a fused task of uneven
  // cost keeps this worker busy while their pumps drain the rest of the
  // wavefront.
  Task* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.empty()) return;
    t = &tasks_[ready_.top().id];
    ready_.pop();
    MetricsRegistry* metrics = installed_metrics();
    if (metrics != nullptr)
      metrics->gauge("dag.ready_depth")
          .set(static_cast<double>(ready_.size()));
  }
  while (t != nullptr) {
    {
      ProfScope span(t->name);
      t->fn();
    }
    std::size_t extra = 0;  // ready tasks beyond the one this worker keeps
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      t->done = true;
      t->fn = nullptr;  // release captured views/buffers promptly
      std::size_t newly_ready = 0;
      for (const TaskId d : t->dependents) {
        Task& dt = tasks_[d];
        HG_INTERNAL_CHECK(dt.unmet > 0, "TaskGraph dependent underflow");
        if (--dt.unmet == 0) {
          ready_.push(ReadyEntry{dt.priority, d});
          ++newly_ready;
        }
      }
      if (t->host_waited) {
        t->host_waited = false;
        HG_INTERNAL_CHECK(host_wait_remaining_ > 0,
                          "TaskGraph host wait underflow");
        if (--host_wait_remaining_ == 0) notify = true;
      }
      if (!ready_.empty()) {
        t = &tasks_[ready_.top().id];
        ready_.pop();
        if (newly_ready > 0) extra = newly_ready - 1;
      } else {
        t = nullptr;
      }
      MetricsRegistry* metrics = installed_metrics();
      if (metrics != nullptr)
        metrics->gauge("dag.ready_depth")
            .set(static_cast<double>(ready_.size()));
    }
    if (notify) cv_done_.notify_all();
    if (extra > 0) {
      std::vector<std::function<void()>> pumps;
      pumps.reserve(extra);
      for (std::size_t i = 0; i < extra; ++i)
        pumps.emplace_back([this] { pump(); });
      pool_->submit_batch(std::move(pumps));
    }
  }
}

void TaskGraph::mark_host_wait(TaskId t) {
  if (tasks_[t].done) return;
  tasks_[t].host_waited = true;
  ++host_wait_remaining_;
}

void TaskGraph::sleep_until_marked_done(std::unique_lock<std::mutex>& lock) {
  cv_done_.wait(lock, [this] { return host_wait_remaining_ == 0; });
}

void TaskGraph::wait(TaskId t) {
  HG_CHECK(t < tasks_.size(), "TaskGraph::wait: task " << t << " beyond "
                                                         << tasks_.size()
                                                         << " tasks");
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  mark_host_wait(t);
  sleep_until_marked_done(lock);
}

void TaskGraph::wait_below(TaskId mark) {
  HG_CHECK(mark <= tasks_.size(),
           "TaskGraph::wait_below: mark " << mark << " beyond "
                                          << tasks_.size() << " tasks");
  if (pool_ == nullptr || mark <= finished_below_) return;
  std::unique_lock<std::mutex> lock(mu_);
  for (TaskId t = finished_below_; t < mark; ++t) mark_host_wait(t);
  sleep_until_marked_done(lock);
  finished_below_ = mark;
}

void TaskGraph::wait_all() {
  wait_below(tasks_.size());
  MetricsRegistry* metrics = installed_metrics();
  if (metrics != nullptr)
    metrics->gauge("dag.critical_path")
        .set(static_cast<double>(stats_.critical_path));
}

}  // namespace hetgrid
