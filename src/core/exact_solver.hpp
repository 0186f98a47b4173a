// Exact solution of Obj2 for a *fixed* arrangement (paper Section 4.3.1).
//
// The optimum of  max (sum r)(sum c)  s.t.  r_i t_ij c_j <= 1  is attained
// at a point where the tight constraints connect all p + q variables, so it
// is realized by an *acceptable spanning tree* of K_{p,q}: fix r_1 = 1,
// propagate r_i t_ij c_j = 1 along tree edges, and keep the tree whose
// induced point satisfies all remaining inequalities with maximal value.
//
// The search is one serial iterative branch-and-bound over include/exclude
// decisions on the edges in row-major order (doc/exact_solver.md):
//  * one shared union-find with an undo log replaces the per-node copies of
//    the naive enumerator;
//  * each partial forest carries partially-propagated relative shares, from
//    which an admissible upper bound on Obj2 prunes provably dominated
//    subtrees, and intra-component constraint violations prune subtrees
//    that cannot yield an acceptable tree;
//  * an optional floor (the best Obj2 of the arrangements searched before
//    this one) cuts every subtree whose bound lies below it, which is how
//    solve_optimal_arrangement shares one incumbent across arrangements.
// Worst-case cost is Theta(#trees) = p^{q-1} q^{p-1}; pruning typically
// visits a tiny fraction of that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/allocation.hpp"
#include "core/cycle_time_grid.hpp"
#include "graph/spanning_tree.hpp"

namespace hetgrid {

struct ExactSolverOptions {
  /// Guard against accidentally launching an infeasible search: the solvers
  /// throw PreconditionError if Scoins' tree count exceeds this.
  std::uint64_t max_trees = 50'000'000;
  /// Worker threads for solve_optimal_arrangement, which searches fixed
  /// blocks of arrangements concurrently; 0 means "all hardware threads".
  /// Results and counters are bit-identical for every thread count. The
  /// search of one grid is serial, so solve_exact ignores this.
  unsigned threads = 1;
  /// Branch-and-bound pruning (Obj2 bound, floor + infeasible-subtree cuts).
  /// With pruning off the search degenerates to the exhaustive enumeration
  /// and trees_enumerated equals Scoins' count; the pruning-soundness tests
  /// rely on this switch.
  bool prune = true;
};

/// The work one search did (or, summed, several).
struct ExactCounters {
  /// Complete spanning trees actually evaluated (leaves the search reached;
  /// equals Scoins' count only when pruning is off).
  std::uint64_t trees_enumerated = 0;
  /// Evaluated trees whose propagated point satisfied every constraint.
  std::uint64_t trees_acceptable = 0;
  /// Search nodes expanded (include/exclude decision points).
  std::uint64_t nodes_visited = 0;
  /// Subtrees cut by the Obj2 bound or floor, or by an intra-component
  /// violation.
  std::uint64_t subtrees_pruned = 0;

  void add(const ExactCounters& o);
  /// Adds these counters, and `solves` searches, to the exact.* counters
  /// of an installed metrics registry.
  void publish(std::uint64_t solves) const;
  friend bool operator==(const ExactCounters&, const ExactCounters&) = default;
};

struct ExactSolution : ExactCounters {
  GridAllocation alloc;
  double obj2 = 0.0;
  /// The acceptable spanning tree realizing `alloc` (edges in ascending
  /// row-major edge order).
  std::vector<BipartiteEdge> tree;
};

/// Runs the branch-and-bound search. Throws PreconditionError if the number
/// of spanning trees exceeds `opts.max_trees`.
ExactSolution solve_exact(const CycleTimeGrid& grid,
                          const ExactSolverOptions& opts);

/// Search with default options and the given cap.
ExactSolution solve_exact(const CycleTimeGrid& grid,
                          std::uint64_t max_trees = 50'000'000);

/// The search behind solve_exact, cut at `floor`: subtrees whose admissible
/// bound lies below it are pruned, and only trees whose Obj2 exceeds it are
/// kept. When no acceptable tree does, the result has an empty tree and
/// obj2 = 0; its counters still count the search. When the tree solve_exact
/// returns beats the floor, this returns the same tree. `opts.prune =
/// false` ignores the floor. Feeds no metrics.
ExactSolution solve_exact_above(const CycleTimeGrid& grid,
                                const ExactSolverOptions& opts, double floor);

/// Propagates r_i t_ij c_j = 1 along `tree` starting from r[0] = 1 and
/// writes the induced point into `out`. Uses explicit known-flags per
/// variable (never a sentinel value, so a NaN cannot masquerade as
/// "known"). Returns false if the edges leave a variable unset, i.e. they
/// do not form a spanning tree of K_{p,q}.
bool propagate_tree(const CycleTimeGrid& grid,
                    const std::vector<BipartiteEdge>& tree,
                    GridAllocation& out);

/// Number of spanning trees solve_exact would search for a p x q grid.
std::uint64_t exact_solver_cost(std::size_t p, std::size_t q);

/// Budgets of the "auto" solver choice (`hetgrid solve --solver=auto` and
/// the placement server's auto mode): the exact solver runs only on pools
/// of at most kExactPoolBudget processors whose tree count fits
/// kExactTreeBudget.
inline constexpr std::size_t kExactPoolBudget = 10;
inline constexpr std::uint64_t kExactTreeBudget = 100'000;

/// True if the exact solver fits the auto budgets for a p x q grid.
inline bool exact_affordable(std::size_t p, std::size_t q) {
  return p * q <= kExactPoolBudget &&
         exact_solver_cost(p, q) <= kExactTreeBudget;
}

}  // namespace hetgrid
