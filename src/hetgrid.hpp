// Umbrella header for the hetgrid library.
//
// hetgrid reproduces "Load Balancing Strategies for Dense Linear Algebra
// Kernels on Heterogeneous Two-dimensional Grids" (Beaumont, Boudet,
// Rastello, Robert — IPPS 2000): data-allocation solvers for heterogeneous
// p x q processor grids, the block-panel distributions they induce, and two
// backends for the ScaLAPACK-style matrix multiplication, LU, QR and
// Cholesky kernels on top of them: a cost-only simulator and a
// message-passing runtime that executes them with real numerics.
//
// Typical flow:
//   1. Measure or choose processor cycle-times (time per r x r block).
//   2. solve_heuristic / solve_exact / solve_optimal_arrangement to get an
//      arrangement and rational row/column shares (core/).
//   3. PanelDistribution::from_allocation to turn shares into a B_p x B_q
//      block panel with the 4-neighbor grid property (dist/).
//   4. simulate_mmm / simulate_lu / simulate_qr / simulate_cholesky to
//      predict performance (sim/), or run_mp_* to execute the kernels with
//      real numerics and explicit messages in virtual time (mp/).
#pragma once

#include "core/alloc1d.hpp"           // IWYU pragma: export
#include "core/allocation.hpp"        // IWYU pragma: export
#include "core/arrangement.hpp"       // IWYU pragma: export
#include "core/cycle_time_grid.hpp"   // IWYU pragma: export
#include "core/drift.hpp"             // IWYU pragma: export
#include "core/exact2x2.hpp"          // IWYU pragma: export
#include "core/exact_solver.hpp"      // IWYU pragma: export
#include "core/heuristic.hpp"         // IWYU pragma: export
#include "core/local_search.hpp"      // IWYU pragma: export
#include "core/machine.hpp"           // IWYU pragma: export
#include "core/rank1_solver.hpp"      // IWYU pragma: export
#include "core/rebalance.hpp"         // IWYU pragma: export
#include "core/rounding.hpp"          // IWYU pragma: export
#include "dist/distribution.hpp"      // IWYU pragma: export
#include "dist/kalinov_lastovetsky.hpp"  // IWYU pragma: export
#include "dist/panel_distribution.hpp"   // IWYU pragma: export
#include "matrix/gemm.hpp"            // IWYU pragma: export
#include "matrix/lu.hpp"              // IWYU pragma: export
#include "matrix/matrix.hpp"          // IWYU pragma: export
#include "matrix/norms.hpp"           // IWYU pragma: export
#include "matrix/cholesky.hpp"        // IWYU pragma: export
#include "matrix/qr.hpp"              // IWYU pragma: export
#include "matrix/trsm.hpp"            // IWYU pragma: export
#include "mp/mp_runtime.hpp"          // IWYU pragma: export
#include "obs/chrome_trace.hpp"       // IWYU pragma: export
#include "obs/cycle_estimator.hpp"    // IWYU pragma: export
#include "obs/imbalance.hpp"          // IWYU pragma: export
#include "obs/metrics.hpp"            // IWYU pragma: export
#include "obs/profiler.hpp"           // IWYU pragma: export
#include "obs/trace.hpp"              // IWYU pragma: export
#include "obs/utilization.hpp"        // IWYU pragma: export
#include "serve/client.hpp"           // IWYU pragma: export
#include "serve/protocol.hpp"         // IWYU pragma: export
#include "serve/server.hpp"           // IWYU pragma: export
#include "serve/solution_cache.hpp"   // IWYU pragma: export
#include "sim/simulator.hpp"          // IWYU pragma: export
#include "svd/svd.hpp"                // IWYU pragma: export
#include "util/rng.hpp"               // IWYU pragma: export
#include "util/stats.hpp"             // IWYU pragma: export
#include "util/table.hpp"             // IWYU pragma: export
#include "util/workloads.hpp"         // IWYU pragma: export
