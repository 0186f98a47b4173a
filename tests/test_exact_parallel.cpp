// Equivalence and soundness tests for the branch-and-bound exact solver and
// the arrangement search on top of it: the threaded arrangement search must
// return bit-identical results and counters for every thread count, the
// running floor must never change which arrangement, tree or shares win,
// and pruning must never change the optimum it finds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/allocation.hpp"
#include "core/arrangement.hpp"
#include "core/exact_solver.hpp"
#include "graph/spanning_tree.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid {
namespace {

OptimalArrangement arrange_with(std::size_t p, std::size_t q,
                                const std::vector<double>& pool,
                                unsigned threads, bool prune = true) {
  ExactSolverOptions opts;
  opts.threads = threads;
  opts.prune = prune;
  return solve_optimal_arrangement(p, q, pool, opts);
}

ExactSolution solve_with(const CycleTimeGrid& g, bool prune = true) {
  ExactSolverOptions opts;
  opts.prune = prune;
  return solve_exact(g, opts);
}

void expect_identical(const ExactCounters& a, const ExactCounters& b,
                      int trial) {
  EXPECT_EQ(a.trees_enumerated, b.trees_enumerated) << "trial " << trial;
  EXPECT_EQ(a.trees_acceptable, b.trees_acceptable) << "trial " << trial;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << "trial " << trial;
  EXPECT_EQ(a.subtrees_pruned, b.subtrees_pruned) << "trial " << trial;
}

// Bitwise equality of two solutions, counters included.
void expect_identical(const ExactSolution& a, const ExactSolution& b,
                      int trial) {
  EXPECT_EQ(a.obj2, b.obj2) << "trial " << trial;
  EXPECT_EQ(a.alloc.r, b.alloc.r) << "trial " << trial;
  EXPECT_EQ(a.alloc.c, b.alloc.c) << "trial " << trial;
  EXPECT_EQ(a.tree, b.tree) << "trial " << trial;
  expect_identical(static_cast<const ExactCounters&>(a), b, trial);
}

// Bitwise equality of two arrangement searches, every counter included.
void expect_identical(const OptimalArrangement& a,
                      const OptimalArrangement& b, int trial) {
  EXPECT_EQ(a.grid.row_major(), b.grid.row_major()) << "trial " << trial;
  expect_identical(a.solution, b.solution, trial);
  EXPECT_EQ(a.arrangements_tried, b.arrangements_tried) << "trial " << trial;
  EXPECT_EQ(a.arrangements_cut, b.arrangements_cut) << "trial " << trial;
  expect_identical(a.totals, b.totals, trial);
}

// ----------------------------------------------------- golden fingerprints

// FNV-1a over the exact bytes of every value fed in (MpGolden's scheme in
// test_mp.cpp), so two runs agree only if every double matches bit for bit.
struct Fingerprint {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
};

// `count` seeded pools of n cycle-times; `repeated` draws each from
// {0.25, 0.5, 0.75, 1}, so pools repeat values and grids tie.
std::vector<std::vector<double>> seeded_pools(std::uint64_t seed,
                                              std::size_t n, int count,
                                              bool repeated) {
  Rng rng(seed);
  std::vector<std::vector<double>> pools;
  for (int k = 0; k < count; ++k) {
    std::vector<double> pool(n);
    if (repeated) {
      for (double& t : pool) t = 0.25 * static_cast<double>(1 + rng.below(4));
    } else {
      pool = rng.cycle_times(n, 0.05);
    }
    pools.push_back(pool);
  }
  return pools;
}

// The winning arrangement, its shares, Obj2 and tree, over every pool.
std::uint64_t arrangement_fingerprint(
    std::size_t p, std::size_t q,
    const std::vector<std::vector<double>>& pools, unsigned threads) {
  Fingerprint fp;
  for (const std::vector<double>& pool : pools) {
    const OptimalArrangement opt = arrange_with(p, q, pool, threads);
    fp.f64(opt.solution.obj2);
    fp.f64s(opt.solution.alloc.r);
    fp.f64s(opt.solution.alloc.c);
    fp.f64s(opt.grid.row_major());
    fp.u64(opt.solution.tree.size());
    for (const BipartiteEdge& e : opt.solution.tree) {
      fp.u64(e.row);
      fp.u64(e.col);
    }
    fp.u64(opt.arrangements_tried);
  }
  return fp.h;
}

TEST(ArrangementGolden, WinnersMatchRecordedFingerprints) {
  // Recorded with independent solve_exact calls per arrangement, each
  // searching its own tree with no floor. The running floor, the serial
  // per-arrangement search and the threaded blocks must change no bit of
  // the winner, at any thread count.
  struct Case {
    const char* name;
    std::size_t p, q;
    std::vector<std::vector<double>> pools;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"3x3", 3, 3, seeded_pools(31, 9, 40, false), 0xa330db3b85f3351bull},
      {"2x3", 2, 3, seeded_pools(23, 6, 40, false), 0xc7f54f62c3e2c42eull},
      {"3x2", 3, 2, seeded_pools(32, 6, 40, false), 0x242df46e50a96e21ull},
      {"3x4", 3, 4, seeded_pools(34, 12, 6, false), 0x4cca496c68a3ee28ull},
      {"3x3 repeated", 3, 3, seeded_pools(33, 9, 40, true),
       0x2df83bd9a9722f75ull},
      {"3x4 repeated", 3, 4, seeded_pools(43, 12, 6, true),
       0x7f78b7ed04b161c2ull},
      {"paper 1..9", 3, 3, {{1, 2, 3, 4, 5, 6, 7, 8, 9}},
       0xdac77495d3bc1d22ull},
      // Powers of two make the arithmetic exact, so transposed twins tie
      // bit for bit; the best Obj2 recurs in both blocks (arrangements
      // 0, 43, 92 and 111 of 112, and 0, 66, 101 and 155 of 156) and the
      // first must win, within a block and across blocks.
      {"4x4 powers of two", 4, 4,
       {{1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8},
        {1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8, 16, 16}},
       0x16ff584bae8f6a51ull},
  };
  for (const Case& c : cases) {
    for (unsigned threads : {1u, 2u, 7u}) {
      SCOPED_TRACE(testing::Message()
                   << c.name << " threads=" << threads);
      const std::uint64_t got =
          arrangement_fingerprint(c.p, c.q, c.pools, threads);
      EXPECT_EQ(got, c.expected) << std::hex << "0x" << got << "ull";
    }
  }
}

// ----------------------------------------------------- thread counts

TEST(ExactParallel, SerialAndParallelAreBitIdentical) {
  // Threads are a pure wall-clock optimization. Every field — winning
  // grid, allocation, tree and all counters — must match the serial run
  // exactly, on shapes with one block of arrangements (3x3, 2x5) and with
  // several (2x6: 132 arrangements, 3x4 and 4x3: 462).
  Rng rng(2251);
  const std::size_t shapes[][2] = {{3, 3}, {2, 5}, {2, 6}, {3, 4}, {4, 3}};
  int trial = 0;
  for (const auto& shape : shapes) {
    for (int k = 0; k < 4; ++k, ++trial) {
      const std::size_t p = shape[0], q = shape[1];
      const std::vector<double> pool = rng.cycle_times(p * q, 0.05);
      expect_identical(arrange_with(p, q, pool, 1),
                       arrange_with(p, q, pool, 4), trial);
    }
  }
}

TEST(ExactParallel, EveryThreadCountAgrees) {
  Rng rng(2252);
  const std::vector<double> pool = rng.cycle_times(12, 0.1);
  const OptimalArrangement serial = arrange_with(3, 4, pool, 1);
  EXPECT_EQ(serial.arrangements_tried, 462u);
  for (unsigned threads : {2u, 3u, 8u, 0u}) {  // 0 = all hardware threads
    const OptimalArrangement other = arrange_with(3, 4, pool, threads);
    expect_identical(serial, other, static_cast<int>(threads));
  }
}

TEST(ExactParallel, ParallelNoPruneIsExhaustiveAndBitIdentical) {
  // prune = false searches every tree of every arrangement: no floor, no
  // bound, no arrangement emptied — and threads still change nothing.
  Rng rng(2253);
  const std::size_t shapes[][2] = {{2, 3}, {2, 6}, {3, 3}};
  int trial = 0;
  for (const auto& shape : shapes) {
    for (int k = 0; k < 3; ++k, ++trial) {
      const std::size_t p = shape[0], q = shape[1];
      const std::vector<double> pool = rng.cycle_times(p * q, 0.05);
      const OptimalArrangement serial = arrange_with(p, q, pool, 1, false);
      expect_identical(serial, arrange_with(p, q, pool, 4, false), trial);
      EXPECT_EQ(serial.arrangements_cut, 0u) << "trial " << trial;
      EXPECT_EQ(serial.totals.subtrees_pruned, 0u) << "trial " << trial;
      EXPECT_EQ(serial.totals.trees_enumerated,
                serial.arrangements_tried * spanning_tree_count(p, q))
          << "trial " << trial;
    }
  }
}

TEST(ExactParallel, FloorKeepsTheWinnerAndCutsWork) {
  // The floor and the bound only skip work: against the exhaustive search
  // the winner is the same arrangement with the same tree and shares,
  // while fewer nodes are visited and some arrangements come back empty.
  Rng rng(2257);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> pool = rng.cycle_times(9, 0.05);
    const OptimalArrangement pruned = arrange_with(3, 3, pool, 1);
    const OptimalArrangement full = arrange_with(3, 3, pool, 1, false);
    EXPECT_EQ(pruned.grid.row_major(), full.grid.row_major())
        << "trial " << trial;
    EXPECT_EQ(pruned.solution.obj2, full.solution.obj2) << "trial " << trial;
    EXPECT_EQ(pruned.solution.tree, full.solution.tree) << "trial " << trial;
    EXPECT_EQ(pruned.arrangements_tried, 42u) << "trial " << trial;
    EXPECT_GT(pruned.arrangements_cut, 0u) << "trial " << trial;
    EXPECT_LT(pruned.totals.nodes_visited, full.totals.nodes_visited)
        << "trial " << trial;
  }
}

// ----------------------------------------------------- one arrangement

TEST(ExactFloor, FloorAboveTheOptimumEmptiesTheSearch) {
  Rng rng(2258);
  for (int trial = 0; trial < 20; ++trial) {
    const CycleTimeGrid g(3, 3, rng.cycle_times(9, 0.05));
    const ExactSolution plain = solve_with(g);
    const ExactSolverOptions opts;
    // A floor just below the optimum keeps the very same tree ...
    const ExactSolution below =
        solve_exact_above(g, opts, plain.obj2 * (1.0 - 1e-6));
    EXPECT_EQ(below.tree, plain.tree) << "trial " << trial;
    EXPECT_EQ(below.obj2, plain.obj2) << "trial " << trial;
    // ... and one just above it returns empty, with the work still counted.
    const ExactSolution above =
        solve_exact_above(g, opts, plain.obj2 * (1.0 + 1e-6));
    EXPECT_TRUE(above.tree.empty()) << "trial " << trial;
    EXPECT_EQ(above.obj2, 0.0) << "trial " << trial;
    EXPECT_GE(above.nodes_visited, 1u) << "trial " << trial;
    EXPECT_GE(above.subtrees_pruned, 1u) << "trial " << trial;
  }
}

TEST(ExactFloor, NoPruneIgnoresTheFloor) {
  Rng rng(2259);
  const CycleTimeGrid g(2, 3, rng.cycle_times(6, 0.05));
  ExactSolverOptions exhaustive;
  exhaustive.prune = false;
  const ExactSolution full = solve_exact(g, exhaustive);
  const ExactSolution floored =
      solve_exact_above(g, exhaustive, full.obj2 * 2.0);
  expect_identical(full, floored, 0);
  EXPECT_EQ(floored.trees_enumerated, spanning_tree_count(2, 3));
}

TEST(ExactParallel, PruningKeepsTheOptimum) {
  // Soundness: the bound is admissible and the infeasibility cut only
  // removes subtrees with no acceptable tree, so pruning must return the
  // same optimum as the exhaustive enumeration — while visiting no more
  // nodes. Also pins the counter semantics: with pruning off, the leaves
  // evaluated are exactly Scoins' tree count.
  Rng rng(2254);
  bool pruned_strictly_somewhere = false;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t p = 1 + rng.below(3), q = 1 + rng.below(4);
    const CycleTimeGrid g(p, q, rng.cycle_times(p * q, 0.05));
    const ExactSolution pruned = solve_with(g, /*prune=*/true);
    const ExactSolution full = solve_with(g, /*prune=*/false);
    EXPECT_NEAR(pruned.obj2, full.obj2, 1e-9 * full.obj2)
        << "trial " << trial;
    EXPECT_LE(pruned.nodes_visited, full.nodes_visited) << "trial " << trial;
    EXPECT_LE(pruned.trees_enumerated, full.trees_enumerated)
        << "trial " << trial;
    EXPECT_EQ(full.trees_enumerated, spanning_tree_count(p, q))
        << "trial " << trial;
    EXPECT_EQ(full.subtrees_pruned, 0u) << "trial " << trial;
    EXPECT_GE(pruned.trees_acceptable, 1u) << "trial " << trial;
    if (pruned.nodes_visited < full.nodes_visited)
      pruned_strictly_somewhere = true;
  }
  EXPECT_TRUE(pruned_strictly_somewhere)
      << "the bound never pruned anything across 100 random grids";
}

TEST(ExactParallel, SolutionsAreFeasibleTightAndTreeConsistent) {
  Rng rng(2255);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t p = 2 + rng.below(2), q = 2 + rng.below(3);
    const CycleTimeGrid g(p, q, rng.cycle_times(p * q, 0.05));
    const ExactSolution sol = solve_with(g);
    EXPECT_TRUE(is_feasible(g, sol.alloc, 1e-8)) << "trial " << trial;
    ASSERT_EQ(sol.tree.size(), p + q - 1) << "trial " << trial;
    // The returned tree reproduces the returned allocation.
    GridAllocation re;
    ASSERT_TRUE(propagate_tree(g, sol.tree, re)) << "trial " << trial;
    EXPECT_EQ(re.r, sol.alloc.r) << "trial " << trial;
    EXPECT_EQ(re.c, sol.alloc.c) << "trial " << trial;
    EXPECT_EQ(obj2_value(re), sol.obj2) << "trial " << trial;
    // Every tree edge is tight at the returned point.
    for (const BipartiteEdge& e : sol.tree)
      EXPECT_NEAR(sol.alloc.r[e.row] * g(e.row, e.col) * sol.alloc.c[e.col],
                  1.0, 1e-9)
          << "trial " << trial;
  }
}

TEST(ExactParallel, FourByFourSolvesUnderDefaultCap) {
  // A 4x4 grid (4096 spanning trees) is comfortably inside the default
  // tree cap, and its bounded search finds the exhaustive optimum.
  Rng rng(2256);
  const CycleTimeGrid g(4, 4, rng.cycle_times(16, 0.3));
  const ExactSolution pruned = solve_with(g);
  EXPECT_GE(pruned.trees_acceptable, 1u);
  const ExactSolution full = solve_with(g, /*prune=*/false);
  EXPECT_EQ(full.trees_enumerated, 4096u);
  EXPECT_NEAR(pruned.obj2, full.obj2, 1e-9 * full.obj2);
  EXPECT_LT(pruned.nodes_visited, full.nodes_visited);
}

TEST(ExactParallel, ThreadCountAboveThePoolBoundIsRejected) {
  // 3x3 is one block of arrangements and never starts a worker, so the
  // bound must be checked on the request itself.
  ExactSolverOptions opts;
  opts.threads = ThreadPool::kMaxThreads + 1;
  EXPECT_THROW(
      solve_optimal_arrangement(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9}, opts),
      PreconditionError);
}

TEST(PropagateTree, RejectsNonSpanningEdgeSets) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  GridAllocation out;
  // Too few edges: column 1 never gets a value.
  EXPECT_FALSE(propagate_tree(g, {{0, 0}, {1, 0}}, out));
  // Right count but contains a cycle, leaving row 1 disconnected.
  EXPECT_FALSE(propagate_tree(g, {{0, 0}, {0, 1}, {0, 0}}, out));
}

TEST(PropagateTree, OrderIndependentOnShuffledEdges) {
  // The sweep loop must converge no matter how the edges are ordered —
  // including orders where an edge is unusable on the first pass.
  const CycleTimeGrid g(3, 2, {1, 2, 3, 4, 5, 6});
  const std::vector<BipartiteEdge> tree = {{0, 0}, {1, 0}, {2, 0}, {2, 1}};
  GridAllocation a, b;
  ASSERT_TRUE(propagate_tree(g, tree, a));
  const std::vector<BipartiteEdge> shuffled = {{2, 1}, {2, 0}, {1, 0}, {0, 0}};
  ASSERT_TRUE(propagate_tree(g, shuffled, b));
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.c, b.c);
  EXPECT_DOUBLE_EQ(a.r[0], 1.0);
  // Chain: c0 = 1/t00, r1 = 1/(c0 t10), r2 = 1/(c0 t20), c1 = 1/(r2 t21).
  EXPECT_DOUBLE_EQ(a.c[0], 1.0);
  EXPECT_DOUBLE_EQ(a.r[1], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.r[2], 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(a.c[1], 1.0 / (a.r[2] * 6.0));
}

}  // namespace
}  // namespace hetgrid
