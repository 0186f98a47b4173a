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

void TaskGraph::collect_deps(const std::vector<Key>& reads,
                             const std::vector<Key>& writes, TaskId self,
                             std::vector<TaskId>& deps) const {
  for (const Key k : reads) {
    const auto w = last_writer_.find(k);
    if (w != last_writer_.end() && w->second != self)
      deps.push_back(w->second);
  }
  for (const Key k : writes) {
    const auto w = last_writer_.find(k);
    if (w != last_writer_.end() && w->second != self)
      deps.push_back(w->second);
    const auto r = readers_.find(k);
    if (r != readers_.end())
      for (const TaskId t : r->second)
        if (t != self) deps.push_back(t);
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
}

std::size_t TaskGraph::append_record(const char* name, std::uint64_t tag,
                                     double weight,
                                     const std::vector<TaskId>& deps,
                                     const std::vector<Key>& reads,
                                     const std::vector<Key>& writes,
                                     bool host) {
  // Heaviest-chain base: task dependencies first (deps are sorted, so ties
  // resolve to the lowest record deterministically), then any host-chain
  // entry on a touched key — that is how a chain crosses a host_acquire,
  // whose key-history erasure would otherwise sever it.
  double base = 0.0;
  std::ptrdiff_t pred = -1;
  for (const TaskId d : deps) {
    const std::size_t r = tasks_[d].rec;
    if (r != SIZE_MAX && records_[r].chain_cost > base) {
      base = records_[r].chain_cost;
      pred = static_cast<std::ptrdiff_t>(r);
    }
  }
  auto fold_key = [&](Key k) {
    const auto it = host_chain_.find(k);
    if (it != host_chain_.end() && records_[it->second].chain_cost > base) {
      base = records_[it->second].chain_cost;
      pred = static_cast<std::ptrdiff_t>(it->second);
    }
  };
  for (const Key k : reads) fold_key(k);
  for (const Key k : writes) fold_key(k);
  TaskRecord rec;
  rec.name = name;
  rec.tag = tag;
  rec.weight = weight;
  rec.chain_cost = base + weight;
  rec.chain_pred = pred;
  rec.host = host;
  records_.push_back(rec);
  return records_.size() - 1;
}

void TaskGraph::note_host_work(const std::vector<Key>& writes, double weight,
                               const char* name, std::uint64_t tag) {
  if (!observe_) return;
  const std::size_t rec =
      append_record(name, tag, weight, {}, {}, writes, /*host=*/true);
  for (const Key k : writes) host_chain_[k] = rec;
}

TaskGraph::TaskId TaskGraph::add(const char* name, std::vector<Key> reads,
                                 std::vector<Key> writes,
                                 std::function<void()> fn, int priority,
                                 double weight, std::uint64_t tag) {
  const TaskId id = tasks_.size();
  std::vector<TaskId> deps;
  collect_deps(reads, writes, id, deps);

  const std::size_t rec =
      observe_ ? append_record(name, tag, weight, deps, reads, writes,
                               /*host=*/false)
               : SIZE_MAX;

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
    t.rec = rec;
    stats_.critical_path = std::max(stats_.critical_path, depth);
    stats_.ready_at_submit += 1;
    if (metrics != nullptr) metrics->counter("dag.ready_at_submit").add(1);
    {
      ProfScope span(name);
      fn();
    }
    t.done = true;
    ++done_count_;
    return id;
  }

  bool ready = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task& t = tasks_.emplace_back();
    t.fn = std::move(fn);
    t.name = name;
    t.priority = priority;
    t.rec = rec;
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
      ++done_count_;
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
      if (host_wait_all_ && done_count_ == tasks_.size()) notify = true;
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

void TaskGraph::host_acquire(const std::vector<Key>& reads,
                             const std::vector<Key>& writes) {
  std::vector<TaskId> waits;
  collect_deps(reads, writes, tasks_.size(), waits);
  if (pool_ != nullptr && !waits.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    // Mark the exact tasks being waited on so only their completions
    // signal cv_done_ — everything else drains without waking the host.
    std::size_t remaining = 0;
    for (const TaskId t : waits)
      if (!tasks_[t].done) {
        tasks_[t].host_waited = true;
        ++remaining;
      }
    if (remaining > 0) {
      host_wait_remaining_ = remaining;
      cv_done_.wait(lock, [this] { return host_wait_remaining_ == 0; });
    }
  }
  // The host now owns the write keys synchronously: whatever it writes is
  // complete before any later add(), so later readers need no dependency.
  // Observation: the erased tasks' chains are stashed per key first, so a
  // later note_host_work / add() on the key still extends them.
  for (const Key k : writes) {
    if (observe_) {
      auto stash = [&](TaskId t) {
        const std::size_t r = tasks_[t].rec;
        if (r == SIZE_MAX) return;
        const auto it = host_chain_.find(k);
        if (it == host_chain_.end() ||
            records_[r].chain_cost > records_[it->second].chain_cost)
          host_chain_[k] = r;
      };
      const auto w = last_writer_.find(k);
      if (w != last_writer_.end()) stash(w->second);
      const auto r = readers_.find(k);
      if (r != readers_.end())
        for (const TaskId t : r->second) stash(t);
    }
    last_writer_.erase(k);
    readers_.erase(k);
  }
}

void TaskGraph::wait_all() {
  if (pool_ != nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (done_count_ != tasks_.size()) {
      host_wait_all_ = true;
      cv_done_.wait(lock, [this] { return done_count_ == tasks_.size(); });
      host_wait_all_ = false;
    }
  }
  MetricsRegistry* metrics = installed_metrics();
  if (metrics != nullptr)
    metrics->gauge("dag.critical_path")
        .set(static_cast<double>(stats_.critical_path));
}

bool TaskGraph::done(TaskId id) const {
  HG_CHECK(id < tasks_.size(), "TaskGraph::done: no task " << id);
  if (pool_ == nullptr) return true;  // serial tasks complete inside add()
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_[id].done;
}

std::vector<TaskGraph::TaskId> TaskGraph::pending_on(Key key) const {
  std::vector<TaskId> out;
  if (pool_ == nullptr) return out;
  std::lock_guard<std::mutex> lock(mu_);
  const auto w = last_writer_.find(key);
  if (w != last_writer_.end() && !tasks_[w->second].done)
    out.push_back(w->second);
  const auto r = readers_.find(key);
  if (r != readers_.end())
    for (const TaskId t : r->second)
      if (!tasks_[t].done) out.push_back(t);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace hetgrid
