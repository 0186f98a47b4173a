// Dependency-driven task-graph scheduler: the message-passing runtime's
// (src/mp) only executor for its real block math.
//
// Tasks declare read/write sets over opaque 64-bit keys (the MP runtime
// encodes (processor, block) pairs). Dependencies are inferred from the
// key history exactly like a scoreboard: a task depends on the last writer
// of every key it reads (RAW), and on the last writer *and* all readers
// since that write of every key it writes (WAW / WAR). Every dependency
// points at an earlier task, so the graph is acyclic by construction.
//
// Determinism contract (doc/parallel_runtime.md): each task's arithmetic
// is self-contained, and every read-modify-write chain on one key is
// serialized in submission order by its WAW dependencies — so reductions
// keep their canonical order and the results are bit-identical for any
// thread count. The ready queue breaks ties deterministically (higher
// priority first, then lower task id), so the schedule itself — not just
// the results — is reproducible modulo worker timing.
//
// With threads == 1 no pool is created: add() runs the task inline
// (submission order is a topological order by construction), and the
// bookkeeping still records the same dependency statistics, so dag.tasks /
// dag.edges / the critical path are identical for every thread count.
//
// Observability (obs/metrics, obs/profiler): counters dag.tasks, dag.edges,
// dag.ready_at_submit, dag.blocked_at_submit; gauges dag.ready_depth
// (threaded only — wall-clock scheduling state) and dag.critical_path
// (deterministic, set by wait_all); each task body runs inside a ProfScope
// named after the task, so worker lanes show the real dataflow schedule —
// the profiler's spans are the tasks' wall-clock record.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/thread_pool.hpp"

namespace hetgrid {

/// Per-task observation record (set_observe). `chain_cost` is the weight of
/// the heaviest dependency chain ending at this record (its own weight
/// included), computed on the host at submission time from the declared
/// weights — deterministic for any thread count. `chain_pred` indexes the
/// predecessor record on that chain (-1 for a chain head). Host-side work
/// noted via note_host_work() appears as records too, so critical paths
/// that pass through host panel factorizations stay connected.
struct TaskRecord {
  const char* name = "";
  std::uint64_t tag = 0;  // caller-defined lane tag (the MP runtime: proc id)
  double weight = 0.0;
  double chain_cost = 0.0;
  std::ptrdiff_t chain_pred = -1;
  bool host = false;  // true for note_host_work records
};

class TaskGraph {
 public:
  /// Opaque resource key; callers encode whatever identifies one unit of
  /// mutable state (the MP runtime packs (processor, block row, block col)).
  using Key = std::uint64_t;
  using TaskId = std::size_t;

  /// Deterministic dependency statistics (identical for any thread count).
  struct Stats {
    std::size_t tasks = 0;
    std::size_t edges = 0;             // dependency edges after dedup
    std::size_t ready_at_submit = 0;   // tasks with no unfinished deps
    std::size_t blocked_at_submit = 0;
    std::size_t critical_path = 0;     // longest dependency chain (tasks)
  };

  /// `threads` as in RuntimeOptions: 0 means all hardware threads, 1 means
  /// serial inline execution (no pool), n > 1 spawns n workers.
  explicit TaskGraph(unsigned threads);

  /// Waits for every submitted task before tearing down the pool, so task
  /// closures never outlive the state they reference (callers destroy the
  /// graph before the stores its tasks read).
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Tag value for tasks with no caller-defined lane.
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

  /// Submits one task. `name` must have static storage duration (it labels
  /// profiler spans). Dependencies are inferred from `reads`/`writes` as
  /// described above. Ties in the ready queue break on (priority desc, id
  /// asc). Tasks must not throw (ThreadPool's non-throwing contract).
  /// `weight` and `tag` only feed the observation records (set_observe);
  /// they never influence scheduling or results.
  TaskId add(const char* name, std::vector<Key> reads,
             std::vector<Key> writes, std::function<void()> fn,
             int priority = 0, double weight = 0.0,
             std::uint64_t tag = kNoTag);

  /// Enables per-task observation records (weighted critical-path chains).
  /// Must be called before the first add(); off by default, in which case
  /// add() skips all record bookkeeping.
  void set_observe(bool on) { observe_ = on; }
  bool observing() const { return observe_; }

  /// Records host-side inline work (a panel factorization the host ran
  /// between host_acquire and the next add) as an observation record:
  /// its chain extends the heaviest chain seen on `writes`, and later
  /// tasks touching those keys chain through it. No task is created and
  /// scheduling is unaffected. No-op unless observing.
  void note_host_work(const std::vector<Key>& writes, double weight,
                      const char* name, std::uint64_t tag = kNoTag);

  /// The observation records in submission order. Host-thread only, after
  /// wait_all(). Empty unless observing.
  const std::vector<TaskRecord>& records() const { return records_; }

  /// Blocks the host thread until every task touching `reads` (last
  /// writer) or `writes` (last writer + readers since) has finished, then
  /// records the host as the new synchronous owner of the write keys —
  /// subsequent tasks reading them need no dependency. This is the partial
  /// synchronization the host uses for inline work (panel factorizations):
  /// unrelated tasks keep running.
  void host_acquire(const std::vector<Key>& reads,
                    const std::vector<Key>& writes);

  /// Blocks until every submitted task has finished.
  void wait_all();

  bool done(TaskId id) const;

  /// Ids of the not-yet-finished tasks that read or write `key` (used to
  /// defer freeing a buffer until its readers drain). Host-thread only.
  std::vector<TaskId> pending_on(Key key) const;

  const Stats& stats() const { return stats_; }
  bool serial() const { return pool_ == nullptr; }
  unsigned threads() const { return threads_; }

 private:
  struct Task {
    std::function<void()> fn;
    const char* name = "";
    int priority = 0;
    std::size_t unmet = 0;           // unfinished dependencies
    std::vector<TaskId> dependents;  // tasks waiting on this one
    std::size_t depth = 1;           // longest chain ending here
    bool done = false;
    bool host_waited = false;        // host_acquire is blocked on this task
    std::size_t rec = SIZE_MAX;      // observation record index (observe_)
  };

  struct ReadyEntry {
    int priority;
    TaskId id;
  };
  struct ReadyWorse {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.id > b.id;  // lower id wins among equal priorities
    }
  };

  void pump();  // runs on a pool worker: pop one ready task, execute it
  void collect_deps(const std::vector<Key>& reads,
                    const std::vector<Key>& writes, TaskId self,
                    std::vector<TaskId>& deps) const;
  // Appends an observation record chained through `deps` (task records)
  // and the host-chain entries of the touched keys. Host-thread only.
  std::size_t append_record(const char* name, std::uint64_t tag,
                            double weight, const std::vector<TaskId>& deps,
                            const std::vector<Key>& reads,
                            const std::vector<Key>& writes, bool host);

  unsigned threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial

  // Key history, host-thread only (add / host_acquire / pending_on).
  std::unordered_map<Key, TaskId> last_writer_;
  std::unordered_map<Key, std::vector<TaskId>> readers_;  // since last write

  Stats stats_;

  // Observation state (set_observe), touched only by the host thread.
  // host_chain_ maps a key to the record index of the heaviest chain the
  // host absorbed for it (host_acquire stashes the erased writers' chains
  // there, note_host_work extends them), so chains survive the key-history
  // erasure at host syncs.
  bool observe_ = false;
  std::vector<TaskRecord> records_;
  std::unordered_map<Key, std::size_t> host_chain_;  // key -> record index

  // Task state shared with workers. cv_done_ is only signalled when the
  // single host thread is actually blocked on the completing task
  // (host_waited / host_wait_all_), so draining the graph performs no
  // per-task wakeup syscalls.
  mutable std::mutex mu_;
  std::condition_variable cv_done_;
  std::size_t host_wait_remaining_ = 0;  // unfinished host_waited tasks
  bool host_wait_all_ = false;           // host blocked in wait_all()
  std::deque<Task> tasks_;        // deque: stable references across add()
  std::size_t done_count_ = 0;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyWorse> ready_;
};

}  // namespace hetgrid
