// Parallel execution engine for the virtual-time runtime (src/runtime),
// which fans its real floating-point block updates out through this engine
// while all virtual-time accounting, message counting, and trace emission
// stays on the host thread. (The message-passing runtime in src/mp runs on
// util/task_graph instead.) The determinism contract
// (doc/parallel_runtime.md):
//
//   * work is organized in *groups*; ops inside one group always execute
//     in submission order on a single worker;
//   * distinct groups touch disjoint memory, so their interleaving cannot
//     affect any result — bit-identical output for every thread count,
//     including the serial (threads == 1) inline path;
//   * run_groups() blocks until every op has finished, i.e. each batch is
//     a synchronization point for the caller.
//
// With threads == 1 no pool is created and everything runs inline on the
// caller's thread — the serial path has zero synchronization overhead.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace hetgrid {

class ParallelEngine {
 public:
  /// `threads` as in RuntimeOptions: 0 means all hardware threads, 1 means
  /// serial inline execution (no pool), n > 1 spawns n workers.
  explicit ParallelEngine(unsigned threads);

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Executes every op of every group and returns when all are done. One
  /// group is one unit of scheduling: its ops run in order on one worker.
  /// Groups are dispatched in index order (relevant only for the inline
  /// path; concurrent groups must be independent by contract).
  void run_groups(std::vector<std::vector<std::function<void()>>>& groups);

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when serial
};

/// Accumulator for one fan-out round: ops are appended to per-group lanes
/// (one lane per virtual processor, or per shared write target) and
/// flushed through the engine at the phase boundary. Reusable across
/// rounds.
class TaskBatch {
 public:
  explicit TaskBatch(std::size_t groups) : lanes_(groups), prev_ops_(groups) {}

  void add(std::size_t group, std::function<void()> op) {
    lanes_[group].push_back(std::move(op));
  }

  /// Runs all pending ops (blocking) and clears the lanes for reuse. Each
  /// lane is re-reserved to its previous round's count: successive rounds
  /// of one kernel queue similar op counts per processor, so the steady
  /// state performs no std::function vector reallocation.
  void run(ParallelEngine& engine) {
    for (std::size_t i = 0; i < lanes_.size(); ++i)
      prev_ops_[i] = lanes_[i].size();
    engine.run_groups(lanes_);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i].clear();
      lanes_[i].reserve(prev_ops_[i]);
    }
  }

  std::size_t groups() const { return lanes_.size(); }

 private:
  std::vector<std::vector<std::function<void()>>> lanes_;
  std::vector<std::size_t> prev_ops_;  // per-lane op count of the last run
};

}  // namespace hetgrid
