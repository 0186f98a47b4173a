// Arrangement search: which processor goes where on the grid.
//
// Theorem 1 of the paper states an optimal arrangement exists among the
// *non-decreasing* ones (cycle-times non-decreasing along every row and
// every column), so the exhaustive optimal search only enumerates those —
// they are exactly the (semi-standard) Young-tableau-like fillings of the
// p x q rectangle with the processor multiset.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cycle_time_grid.hpp"
#include "core/exact_solver.hpp"

namespace hetgrid {

/// Invokes `visit` for every distinct non-decreasing arrangement of `pool`
/// on a p x q grid; returns the number visited. Arrangements that coincide
/// as value grids (possible when the pool has repeated cycle-times) are
/// visited once. If `visit` returns false, enumeration stops early.
std::uint64_t enumerate_nondecreasing_arrangements(
    std::size_t p, std::size_t q, std::vector<double> pool,
    const std::function<bool(const CycleTimeGrid&)>& visit);

/// Invokes `visit` for every distinct arrangement (any order), for
/// brute-force validation of Theorem 1 on small grids. Returns the count.
std::uint64_t enumerate_all_arrangements(
    std::size_t p, std::size_t q, std::vector<double> pool,
    const std::function<bool(const CycleTimeGrid&)>& visit);

/// Globally optimal solution of the 2D load-balancing problem: exact solver
/// on every non-decreasing arrangement. Doubly exponential; for the small
/// grids where the paper's exact method applies.
struct OptimalArrangement {
  CycleTimeGrid grid{1, 1, {1.0}};  // the winner; 1x1 until a search runs
  /// The winning arrangement's search (its counters cover that one only).
  ExactSolution solution;
  /// Non-decreasing arrangements enumerated; every one is searched.
  std::uint64_t arrangements_tried = 0;
  /// Arrangements whose search found nothing above the running best.
  std::uint64_t arrangements_cut = 0;
  /// Search counters summed over every arrangement searched.
  ExactCounters totals;
};

/// Searches every arrangement with solve_exact_above, passing the best
/// Obj2 found so far (less a 1e-9 relative slack) as the floor, and keeps
/// the first arrangement with the highest Obj2, exactly as independent
/// solve_exact calls would. `opts.threads` workers take fixed blocks of
/// arrangements in enumeration order, so the result and every counter are
/// the same for any thread count. Feeds the exact.* metrics once, summed
/// over all arrangements (exact.solves counts them, exact.arrangements_cut
/// the ones the floor emptied).
OptimalArrangement solve_optimal_arrangement(
    std::size_t p, std::size_t q, std::vector<double> pool,
    const ExactSolverOptions& opts = {});

}  // namespace hetgrid
