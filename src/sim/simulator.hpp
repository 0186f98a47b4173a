// Bulk-synchronous simulation of the paper's kernels on a heterogeneous 2D
// grid under any periodic block distribution.
//
// The simulator replays the outer-product matrix multiplication
// (Section 3.1) and the right-looking LU / QR / Cholesky factorizations
// (Section 3.2) step by step, charging each processor its owned block
// operations at its cycle-time and each row/column broadcast at the network
// model's cost. It reports the makespan, its compute/communication split,
// per-processor busy times, and the per-step perfect-balance lower bound —
// everything the strategy-comparison benchmarks need.
//
// The same code prices the online-rebalancing study (doc/rebalance.md)
// through `RuntimeOptions`: a drift trace scales every per-step charge, so
// a straggler that slows down mid-run is priced step by step, and with
// `rebalance = kPanel` the run's OnlineRebalancer (dist/online_rebalancer.hpp,
// the one both backends hold) re-solves the allocation at every panel
// boundary. When it acts, its live owner lines are rewritten and the
// migration bill is charged to that step's communication time. With the
// default options (no trace, rebalancing off) every charge is the paper's
// static model, bit for bit.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/rebalance.hpp"
#include "dist/distribution.hpp"
#include "obs/trace.hpp"

namespace hetgrid {

/// Timeline record for one bulk-synchronous step of a simulated kernel.
struct StepRecord {
  std::size_t step = 0;  // k, the block step index
  double panel = 0.0;    // panel-factorization phase critical path
  double row = 0.0;      // row-panel (trsm/reflector) phase (LU/QR only)
  double update = 0.0;   // trailing / full update phase critical path
  double comm = 0.0;     // broadcast phases (+ any migration bill)

  double total() const { return panel + row + update + comm; }
};

struct SimReport {
  std::string kernel;        // "mmm", "lu", "qr", "cholesky"
  std::string distribution;  // distribution name
  double total_time = 0.0;   // simulated makespan (seconds)
  double compute_time = 0.0; // sum over steps of the compute critical path
  double comm_time = 0.0;    // sum over steps of the broadcast critical path
  /// Per-processor busy compute time, indexed [grid_row * q + grid_col].
  std::vector<double> busy;
  /// Sum over steps of (step work volume / total grid capacity): the
  /// makespan of a perfectly balanced, zero-communication execution with
  /// the same bulk-synchronous step structure.
  double perfect_compute_bound = 0.0;
  /// Per-step timeline (one record per block step, in order).
  std::vector<StepRecord> steps;
  /// Online rebalancer activity (all zero unless rebalancing is on):
  /// `resolves` counts the boundaries where a re-solve ran, `migrations`
  /// the boundaries that acted, `blocks_moved` the total owner changes
  /// (already including the per-kernel block multiplier — 3 for MMM).
  std::size_t resolves = 0;
  std::size_t migrations = 0;
  std::size_t blocks_moved = 0;
  std::vector<RebalanceEvent> events;  // applied rebalances, step order

  /// Average fraction of the makespan processors spend computing.
  double average_utilization() const;
  /// total_time relative to the perfect bound (>= 1; 1 means optimal).
  double slowdown_vs_perfect() const;
};

/// Simulates C = A * B on nb x nb blocks (outer-product algorithm,
/// Section 3.1): nb steps, each with one horizontal and one vertical
/// broadcast followed by the full rank-r update sweep.
///
/// All simulate_* functions optionally stream their timeline into `sink`
/// (compute/broadcast spans per processor, one phase marker per step; see
/// doc/observability.md). A null sink costs nothing. `opts.trace` and
/// `opts.rebalance` select the drift and rebalancing model described at the
/// top of this header; `opts.threads` and `opts.scheduler` do not apply.
SimReport simulate_mmm(const Machine& machine, const Distribution2D& dist,
                       std::size_t nb, const KernelCosts& costs = {},
                       TraceSink* sink = nullptr,
                       const RuntimeOptions& opts = {});

/// Simulates the right-looking LU factorization (Section 3.2): at step k,
/// panel factorization in the owner column, L broadcast along rows, U
/// triangular solves in the owner row, U broadcast along columns, trailing
/// update of blocks (I > k, J > k).
SimReport simulate_lu(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, const KernelCosts& costs = {},
                      TraceSink* sink = nullptr,
                      const RuntimeOptions& opts = {});

/// Simulates the right-looking Householder QR (same communication pattern
/// as LU, heavier panel and update flops).
SimReport simulate_qr(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, const KernelCosts& costs = {},
                      TraceSink* sink = nullptr,
                      const RuntimeOptions& opts = {});

/// Simulates the right-looking Cholesky factorization (lower variant): at
/// step k the owner column factors/solves the panel, the L21 panel is
/// broadcast along rows and (transposed) along columns, and only the lower
/// trailing blocks (I >= J > k) are updated.
SimReport simulate_cholesky(const Machine& machine,
                            const Distribution2D& dist, std::size_t nb,
                            const KernelCosts& costs = {},
                            TraceSink* sink = nullptr,
                            const RuntimeOptions& opts = {});

}  // namespace hetgrid
