// Asynchronous message-passing runtime: distributed-memory execution of
// the paper's kernels with per-processor storage and explicit messages.
//
// This is the highest-fidelity model in hetgrid. Compared to the
// bulk-synchronous simulator (src/sim), which charges costs without
// touching data:
//   * every processor has its own BlockStore — data moves only through
//     VirtualNetwork::transfer, and reading a block that was never sent
//     throws (catching missing-communication bugs in kernel ports);
//   * there is no global barrier — per-processor clocks advance
//     independently, ring broadcasts pipeline hop by hop through the
//     contended network, and later steps' panel broadcasts overlap earlier
//     steps' updates, exactly as a well-written MPI code behaves;
//   * numerics are real: the gathered results are verified against the
//     sequential kernels by the tests.
//
// The paper's own MPI experiments live in its companion paper [4]; this
// runtime is the faithful stand-in (see DESIGN.md's substitution table).
#pragma once

#include <cstddef>
#include <vector>

#include "dist/distribution.hpp"
#include "matrix/matrix.hpp"
#include "sim/simulator.hpp"

namespace hetgrid {

struct MpReport {
  double makespan = 0.0;        // max over processors of the final clock
  std::vector<double> clock;    // per-processor finish time
  std::vector<double> busy;     // per-processor pure compute time
  std::size_t messages = 0;     // point-to-point messages sent
  double blocks_moved = 0.0;    // total r x r blocks transferred
  bool factorized = true;       // LU: false if a zero pivot was hit
  // Online rebalancer activity (doc/rebalance.md); both stay 0 with
  // RuntimeOptions::Rebalance::kOff.
  std::size_t rebalances = 0;        // panel boundaries that acted
  std::size_t rebalance_blocks = 0;  // blocks migrated to new owners

  double average_utilization() const;
};

struct MpQrReport : MpReport {
  std::vector<double> tau;  // reflector scales, panel-major like qr_factor
};

struct MpLuReport : MpReport {
  // LAPACK-style ipiv (0-based, global rows): row i was interchanged with
  // row piv[i] at step i, exactly like lu_factor_blocked's.
  std::vector<std::size_t> piv;
};

/// Distributed-memory C = A * B (outer-product algorithm) with square
/// blocks of `block` elements. A and B are scattered to their owners, the
/// per-step panels travel by ring broadcasts, and the owned C blocks are
/// gathered into `c` at the end. C's blocks start at zero on their owners,
/// so the prior contents of `c` are never read.
///
/// All run_mp_* entry points execute their real block math through one
/// util/task_graph keyed by (processor, block): the block-versioned
/// read/write dependencies alone order the work, so phases of successive
/// steps overlap. `opts.threads` sizes its worker pool (1, the default,
/// runs every task inline on the caller — the determinism reference),
/// while every clock, counter, and trace span is computed on the host
/// thread — the MpReport, the trace, and the gathered matrix are
/// bit-identical for any thread count (see doc/parallel_runtime.md).
MpReport run_mp_mmm(const Machine& machine, const Distribution2D& dist,
                    const ConstMatrixView& a, const ConstMatrixView& b,
                    MatrixView c, std::size_t block,
                    const KernelCosts& costs = {},
                    TraceSink* sink = nullptr,
                    const RuntimeOptions& opts = {});

/// Distributed-memory right-looking LU without pivoting (diagonally
/// dominant input required). `a` is scattered, factored, and the packed
/// L\U factors gathered back into `a`.
///
/// With `lookahead` enabled, each processor updates the blocks the *next*
/// panel needs (block column / row k+1) first and defers the rest of its
/// trailing update until after the next step's panel and triangular
/// solves — the classic lookahead optimization that takes the panel
/// factorization off the critical path. Numerical results are identical;
/// only the virtual schedule changes. The same overlap always happens for
/// real on the wall clock (next-panel updates run at elevated priority and
/// the host only waits on the diagonal block's dependency chain); the flag
/// controls the virtual-time model only.
MpReport run_mp_lu(const Machine& machine, const Distribution2D& dist,
                   MatrixView a, std::size_t block,
                   const KernelCosts& costs = {}, bool lookahead = false,
                   TraceSink* sink = nullptr,
                   const RuntimeOptions& opts = {});

/// Distributed-memory right-looking LU with partial pivoting (ScaLAPACK's
/// pdgetrf): the same step loop as run_mp_lu, with a pivoted panel phase.
/// Each step gathers the full-height panel column to the diagonal owner,
/// factors it there with lu_factor_unblocked, and rings it back down the
/// grid column (run_mp_qr's panel sequence). The L panel broadcast then
/// carries the pivots along the grid rows, and every other block column,
/// left and trailing, applies the step's row interchanges: rows that
/// change processor travel as one priced message per (source,
/// destination) pair of a grid column, and same-processor rows are
/// swapped locally. U12 solves, the U broadcast and the trailing update
/// follow as in run_mp_lu. On return `a` holds the packed L\U factors of
/// P * A and the report carries `piv`; `factorized` is false if an exact
/// zero pivot was hit (the factorization still completes, as getrf does).
/// Requires an aligned distribution and RuntimeOptions::Rebalance::kOff;
/// the virtual schedule has no lookahead.
MpLuReport run_mp_lu_pivoted(const Machine& machine,
                             const Distribution2D& dist, MatrixView a,
                             std::size_t block, const KernelCosts& costs = {},
                             TraceSink* sink = nullptr,
                             const RuntimeOptions& opts = {});

/// Distributed-memory right-looking Cholesky (lower variant) on an SPD
/// matrix. The L21 panel is ring-broadcast along grid rows, then each
/// block is relayed down its trailing block-column's grid column (the
/// "transposed panel" broadcast of the symmetric update). Requires an
/// aligned distribution.
MpReport run_mp_cholesky(const Machine& machine, const Distribution2D& dist,
                         MatrixView a, std::size_t block,
                         const KernelCosts& costs = {},
                         TraceSink* sink = nullptr,
                         const RuntimeOptions& opts = {});

/// Distributed-memory compact-WY Householder QR (rows >= cols). Per panel:
/// the column panel is gathered to the diagonal owner and factored there,
/// the factored V panel (plus the larft T factor) travels back down the
/// owner grid column and out along grid rows, each processor accumulates
/// its partial W = V^T * C which is tree-reduced within the grid column to
/// Y = T^T * W, and Y rides a column ring back out for the C -= V * Y
/// update. On return `a` holds R in its upper triangle and the Householder
/// vectors below, exactly like qr_factor; the tau vector is in the report.
/// Requires an aligned distribution (same condition as LU / Cholesky).
MpQrReport run_mp_qr(const Machine& machine, const Distribution2D& dist,
                     MatrixView a, std::size_t block,
                     const KernelCosts& costs = {},
                     TraceSink* sink = nullptr,
                     const RuntimeOptions& opts = {});

}  // namespace hetgrid
