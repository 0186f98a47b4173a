// The machine model both execution backends price a run on (paper Section
// 2.2): per-processor cycle-times plus a network, the kernels' relative
// phase weights, and the execution options the bulk-synchronous simulator
// (sim/simulator.hpp) and the message-passing runtime (mp/mp_runtime.hpp)
// share.
//
// Two interconnect families are modelled:
//  * Ethernet — a shared medium: every transmission in the machine
//    serializes, but a physical broadcast reaches a whole row/column in one
//    transmission.
//  * Switched (Myrinet-like) — independent links: different processors
//    communicate in parallel, while each single processor's communications
//    stay sequential (the paper's assumption).
//
// Broadcasts along grid rows/columns are ring broadcasts; with pipelining
// (`pipelined = true`, ScaLAPACK's steady-state assumption) the per-step
// cost of a ring broadcast is one hop, otherwise the message crosses all
// hops within the step.
#pragma once

#include <cstddef>

#include "core/cycle_time_grid.hpp"
#include "core/drift.hpp"
#include "obs/cycle_estimator.hpp"
#include "util/check.hpp"

namespace hetgrid {

enum class Topology {
  kEthernet,
  kSwitched,
};

struct NetworkModel {
  Topology topology = Topology::kSwitched;
  /// Per-message start-up cost (seconds).
  double latency = 1.0e-4;
  /// Transfer time for one r x r block (seconds).
  double block_transfer = 2.0e-4;
  /// Ring broadcasts amortize across steps (steady-state pipelining).
  bool pipelined = true;

  void validate() const {
    HG_CHECK(latency >= 0.0 && block_transfer >= 0.0,
             "network costs must be nonnegative");
  }

  /// Cost charged to one ring broadcast of `blocks` blocks along a line of
  /// `line_size` processors, as seen by the critical path of one step.
  double broadcast_cost(std::size_t blocks, std::size_t line_size) const {
    if (line_size <= 1 || blocks == 0) return 0.0;
    const double one_hop =
        latency + static_cast<double>(blocks) * block_transfer;
    if (topology == Topology::kEthernet) return one_hop;  // bus broadcast
    const std::size_t hops = pipelined ? 1 : line_size - 1;
    return one_hop * static_cast<double>(hops);
  }

  /// Zero-cost network, for isolating pure load-balance effects.
  static NetworkModel free() { return {Topology::kSwitched, 0.0, 0.0, true}; }
};

/// A simulated machine: cycle-times are seconds per r x r block update.
struct Machine {
  CycleTimeGrid grid;
  NetworkModel net;
};

/// Relative flop weights of the kernels' phases, in units of one block
/// update (= one r x r GEMM accumulation, the paper's cycle-time unit).
struct KernelCosts {
  double panel_factor = 0.5;  // LU panel: half the flops of a full update
  double trsm = 0.5;          // triangular solve on one block
  double update = 1.0;        // rank-r GEMM update of one block
  double qr_factor = 2.0;     // Householder panel on one block
  double qr_update = 2.0;     // apply block reflector to one block
  double chol_factor = 0.5;   // Cholesky panel work per block (half of LU's
                              // GEMM update, like the LU panel)
};

/// Execution options shared by the simulator and the message-passing
/// runtime in src/mp, the numerics-executing backend. `threads` fans the
/// runtime's real block math across a util/thread_pool worker pool; 0
/// means all hardware threads, 1 (the default) runs serially inline.
/// Virtual clocks, message counters, and trace spans are always computed
/// on the host thread, and the floating-point results are bit-identical
/// for every thread count (see doc/parallel_runtime.md for the contract).
///
/// `scheduler` names the MP runtime's executor. kDag, its only value, emits
/// every block op into a util/task_graph whose block-versioned read/write
/// dependencies alone order the work, so step k+1's panel chain overlaps
/// step k's trailing updates.
/// `rebalance` arms the online rebalancer (doc/rebalance.md): at every
/// panel boundary the backend's OnlineRebalancer (dist/online_rebalancer.hpp)
/// re-solves the allocation from its own cycle-time estimator (configured
/// by `estimator`) and, when plan_rebalance's thresholds clear, the backend
/// migrates trailing blocks to the new owners. Off by default and
/// bit-identical to pre-rebalance builds when off; it requires an aligned
/// (grid-pattern) distribution. `trace` plants time-varying cycle-times
/// (drift scenarios, core/drift.hpp); an empty trace is the static paper
/// model.
struct RuntimeOptions {
  enum class Scheduler { kDag };
  enum class Rebalance { kOff, kPanel };

  unsigned threads = 1;
  Scheduler scheduler = Scheduler::kDag;
  Rebalance rebalance = Rebalance::kOff;
  CycleTimeEstimator::Options estimator;
  CycleTimeTrace trace;
};

}  // namespace hetgrid
