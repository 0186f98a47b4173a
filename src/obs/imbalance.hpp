// Load-imbalance report: where a finished run's makespan was actually
// lost, and how close it came to the paper's lower bound under the
// *estimated* cycle-times.
//
// A RunObservation is the per-run collection vessel: instrumented backends
// (mp/mp_runtime, sim/simulator) fetch the installed one with a single
// atomic load and, when present, feed their per-task charges into its
// CycleTimeEstimator and deposit the dag scheduler's task records at
// finish. Installing an observation never changes any computed result —
// MpReport, gathered matrices, and trace streams stay bit-identical.
//
// build_imbalance_report() then derives:
//   - makespan vs. the lower bound  total_units / sum_i(1/t_hat_i)  with
//     t_hat_i the units-weighted mean estimated rate of processor i — the
//     paper's perfectly-balanced bound, under observed rather than assumed
//     cycle-times;
//   - per-processor busy / idle / slack (slack: how much earlier the lane
//     finished than the makespan — pure tail slack, while idle also counts
//     in-run gaps);
//   - critical-path attribution from the dag scheduler's task records: the
//     heaviest weighted dependency chain, aggregated into (processor,
//     op-name) segments, so "which lane's which phase held the run" is one
//     table;
//   - the estimate table itself, with relative error against the true
//     t_ij when the machine grid is known, plus any drift events.
//
// write_imbalance_json() is byte-stable (format_compact, fixed key order)
// and carries no wall-clock value — its bytes are identical for every
// thread count, which CI asserts.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/cycle_time_grid.hpp"
#include "core/rebalance.hpp"
#include "obs/cycle_estimator.hpp"
#include "util/task_graph.hpp"

namespace hetgrid {

/// Everything one observed run collects. Install with install_observation()
/// around the run; the estimator is thread-safe, `tasks` is written once by
/// the host at finish. The estimator's EWMA alpha / drift band are
/// configurable via the explicit constructor (`hetgrid observe
/// --ewma-alpha`); the estimator itself is immovable (it owns a mutex), so
/// options must be chosen at construction.
struct RunObservation {
  RunObservation() = default;
  explicit RunObservation(const CycleTimeEstimator::Options& opt)
      : estimator(opt) {}

  CycleTimeEstimator estimator;
  std::vector<TaskRecord> tasks;  // MP task-graph records (empty for sim)
  /// Applied rebalances in step order (written by the host at the panel
  /// boundary that acted; empty when the rebalancer is off or never acted).
  std::vector<RebalanceEvent> rebalances;
};

/// Installs `obs` as the process-wide observation sink and returns the
/// previous one. Instrumentation sites pay one relaxed atomic load when
/// nothing is installed.
RunObservation* install_observation(RunObservation* obs);

namespace detail {
extern std::atomic<RunObservation*> g_observation;
}

inline RunObservation* installed_observation() {
  return detail::g_observation.load(std::memory_order_relaxed);
}

struct LaneStat {
  std::size_t proc = 0;
  double busy = 0.0;
  double idle = 0.0;   // makespan - busy
  double slack = 0.0;  // makespan - finish (tail slack)
  double finish = 0.0;
};

/// One aggregated critical-path segment: all chain records with this
/// (processor, op name), heaviest first.
struct CriticalSegment {
  std::size_t proc = 0;  // TaskGraph::kNoTag-tagged records: SIZE_MAX
  std::string op;
  double weight = 0.0;
  std::size_t tasks = 0;
};

struct EstimateRow {
  std::size_t proc = 0;
  ObsOp op = ObsOp::kUpdate;
  double estimate = 0.0;
  double units = 0.0;
  std::uint64_t samples = 0;
  bool has_true = false;
  double true_t = 0.0;
  double rel_err = 0.0;  // |estimate - true| / true (has_true only)
};

struct ImbalanceReport {
  double makespan = 0.0;
  double lower_bound = 0.0;       // 0 when the estimator saw no samples
  double critical_path_cost = 0.0;
  std::size_t critical_path_tasks = 0;
  std::vector<LaneStat> lanes;
  std::vector<CriticalSegment> critical;  // weight-descending
  std::vector<EstimateRow> estimates;     // (proc, op)-ascending
  std::vector<DriftEvent> drift;
  std::vector<RebalanceEvent> rebalances;  // applied rebalances, step order
};

/// Builds the report from a finished run: `busy` and `finish` are the
/// per-processor virtual busy times and final clocks (MpReport::busy /
/// MpReport::clock; a bulk-synchronous SimReport passes its busy vector
/// and a finish vector of `total_time` per lane). `true_grid` (optional)
/// adds per-lane ground truth to the estimate rows; `grid_cols` maps flat
/// processor ids to grid coordinates for it.
ImbalanceReport build_imbalance_report(const RunObservation& obs,
                                       const std::vector<double>& busy,
                                       const std::vector<double>& finish,
                                       const CycleTimeGrid* true_grid = nullptr,
                                       std::size_t grid_cols = 0);

/// Byte-stable JSON (doc/observability.md): fixed key order, format_compact
/// numbers, no wall-clock fields — identical bytes for any thread count.
void write_imbalance_json(std::ostream& os, const ImbalanceReport& rep);

/// Human-readable tables (the `hetgrid observe` output).
void print_imbalance(std::ostream& os, const ImbalanceReport& rep);

}  // namespace hetgrid
