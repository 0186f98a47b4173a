// Tests for arrangement enumeration and the Theorem 1 reduction.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/arrangement.hpp"
#include "core/heuristic.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

std::uint64_t count_nondecreasing(std::size_t p, std::size_t q,
                                  std::vector<double> pool) {
  return enumerate_nondecreasing_arrangements(
      p, q, std::move(pool), [](const CycleTimeGrid&) { return true; });
}

std::uint64_t count_all(std::size_t p, std::size_t q,
                        std::vector<double> pool) {
  return enumerate_all_arrangements(p, q, std::move(pool),
                                    [](const CycleTimeGrid&) { return true; });
}

// ----------------------------------------------------- counting

TEST(ArrangementEnum, NonDecreasingCountsMatchYoungTableaux) {
  // Distinct values: the number of non-decreasing fillings of a p x q
  // rectangle is the number of standard Young tableaux of that shape
  // (hook length formula): 2x2 -> 2, 2x3 -> 5, 3x3 -> 42, 2x4 -> 14.
  EXPECT_EQ(count_nondecreasing(2, 2, {1, 2, 3, 4}), 2u);
  EXPECT_EQ(count_nondecreasing(2, 3, {1, 2, 3, 4, 5, 6}), 5u);
  EXPECT_EQ(count_nondecreasing(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9}), 42u);
  EXPECT_EQ(count_nondecreasing(2, 4, {1, 2, 3, 4, 5, 6, 7, 8}), 14u);
}

TEST(ArrangementEnum, AllCountsAreFactorialForDistinctValues) {
  EXPECT_EQ(count_all(2, 2, {1, 2, 3, 4}), 24u);
  EXPECT_EQ(count_all(2, 3, {1, 2, 3, 4, 5, 6}), 720u);
}

TEST(ArrangementEnum, RepeatedValuesDeduplicate) {
  // Pool {1,1,2,2}: distinct value grids = 4!/(2!2!) = 6; non-decreasing
  // fillings: {1,1;2,2} and {1,2;1,2} only.
  EXPECT_EQ(count_all(2, 2, {1, 1, 2, 2}), 6u);
  EXPECT_EQ(count_nondecreasing(2, 2, {1, 1, 2, 2}), 2u);
}

TEST(ArrangementEnum, AllEqualValuesGiveSingleArrangement) {
  EXPECT_EQ(count_all(2, 3, std::vector<double>(6, 1.0)), 1u);
  EXPECT_EQ(count_nondecreasing(2, 3, std::vector<double>(6, 1.0)), 1u);
}

TEST(ArrangementEnum, OneDimensionalGridHasOneNonDecreasingOrder) {
  EXPECT_EQ(count_nondecreasing(1, 4, {4, 3, 2, 1}), 1u);
  EXPECT_EQ(count_all(1, 3, {1, 2, 3}), 6u);
}

TEST(ArrangementEnum, VisitedGridsAreValidAndNonDecreasing) {
  enumerate_nondecreasing_arrangements(
      2, 3, {6, 5, 4, 3, 2, 1}, [](const CycleTimeGrid& g) {
        EXPECT_TRUE(g.is_non_decreasing());
        std::vector<double> vals = g.row_major();
        std::sort(vals.begin(), vals.end());
        EXPECT_EQ(vals, (std::vector<double>{1, 2, 3, 4, 5, 6}));
        return true;
      });
}

std::vector<std::vector<double>> nondecreasing_grids(
    std::size_t p, std::size_t q, const std::vector<double>& pool) {
  std::vector<std::vector<double>> out;
  enumerate_nondecreasing_arrangements(p, q, pool,
                                       [&](const CycleTimeGrid& g) {
                                         out.push_back(g.row_major());
                                         return true;
                                       });
  return out;
}

// Brute force: every distinct arrangement, kept if non-decreasing.
std::vector<std::vector<double>> filtered_grids(
    std::size_t p, std::size_t q, const std::vector<double>& pool) {
  std::vector<std::vector<double>> out;
  enumerate_all_arrangements(p, q, pool, [&](const CycleTimeGrid& g) {
    if (g.is_non_decreasing()) out.push_back(g.row_major());
    return true;
  });
  return out;
}

TEST(ArrangementEnum, YieldsExactlyTheFilteredGridsInOrder) {
  // The enumerator skips prefixes that cannot complete; it must still
  // visit exactly the non-decreasing grids, in the brute force's
  // (lexicographic) order, on every shape of up to 9 cells, with distinct
  // values and with repeated ones.
  Rng rng(14);
  for (std::size_t p = 1; p <= 9; ++p) {
    for (std::size_t q = 1; p * q <= 9; ++q) {
      const std::size_t n = p * q;
      std::vector<double> distinct(n), repeated(n), pairs(n);
      for (std::size_t k = 0; k < n; ++k) {
        distinct[k] = static_cast<double>(n - k);  // unsorted on purpose
        repeated[k] = static_cast<double>(1 + rng.below(3));
        pairs[k] = static_cast<double>(1 + k / 2);
      }
      for (const std::vector<double>* pool : {&distinct, &repeated, &pairs}) {
        SCOPED_TRACE(testing::Message()
                     << p << "x" << q << " pool "
                     << testing::PrintToString(*pool));
        EXPECT_EQ(nondecreasing_grids(p, q, *pool),
                  filtered_grids(p, q, *pool));
      }
    }
  }
}

TEST(ArrangementEnum, EarlyStopHonored) {
  std::uint64_t calls = 0;
  enumerate_all_arrangements(2, 2, {1, 2, 3, 4},
                             [&](const CycleTimeGrid&) {
                               return ++calls < 3;
                             });
  EXPECT_EQ(calls, 3u);
}

TEST(ArrangementEnum, PoolSizeMismatchThrows) {
  EXPECT_THROW(count_nondecreasing(2, 2, {1, 2, 3}), PreconditionError);
}

// ----------------------------------------------------- Theorem 1

TEST(Theorem1, NonDecreasingSearchIsGloballyOptimal2x2) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const std::vector<double> pool = rng.cycle_times(4, 0.05);
    double best_all = 0.0, best_nd = 0.0;
    enumerate_all_arrangements(2, 2, pool, [&](const CycleTimeGrid& g) {
      best_all = std::max(best_all, solve_exact(g).obj2);
      return true;
    });
    enumerate_nondecreasing_arrangements(
        2, 2, pool, [&](const CycleTimeGrid& g) {
          best_nd = std::max(best_nd, solve_exact(g).obj2);
          return true;
        });
    EXPECT_NEAR(best_all, best_nd, 1e-9 * best_all) << "trial " << trial;
  }
}

TEST(Theorem1, NonDecreasingSearchIsGloballyOptimal2x3) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<double> pool = rng.cycle_times(6, 0.05);
    double best_all = 0.0, best_nd = 0.0;
    enumerate_all_arrangements(2, 3, pool, [&](const CycleTimeGrid& g) {
      best_all = std::max(best_all, solve_exact(g).obj2);
      return true;
    });
    enumerate_nondecreasing_arrangements(
        2, 3, pool, [&](const CycleTimeGrid& g) {
          best_nd = std::max(best_nd, solve_exact(g).obj2);
          return true;
        });
    EXPECT_NEAR(best_all, best_nd, 1e-9 * best_all) << "trial " << trial;
  }
}

// ----------------------------------------------------- optimal search

TEST(OptimalArrangement, BeatsOrMatchesHeuristic) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> pool = rng.cycle_times(6, 0.05);
    const OptimalArrangement opt = solve_optimal_arrangement(2, 3, pool);
    const HeuristicResult h = solve_heuristic(2, 3, pool);
    EXPECT_GE(opt.solution.obj2, h.final().obj2 - 1e-9) << "trial " << trial;
    EXPECT_TRUE(opt.grid.is_non_decreasing());
    EXPECT_EQ(opt.arrangements_tried, 5u);
  }
}

TEST(OptimalArrangement, Rank1PoolReachesCapacity) {
  // {1,2} x {1,3} outer-product pool arranged optimally is perfect.
  const OptimalArrangement opt = solve_optimal_arrangement(2, 2, {1, 2, 3, 6});
  EXPECT_NEAR(opt.solution.obj2, 2.0, 1e-12);
}

TEST(OptimalArrangement, PaperExampleUpperBoundsHeuristic) {
  const OptimalArrangement opt =
      solve_optimal_arrangement(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  // The heuristic converges to 2.5889; the exhaustive optimum over
  // non-decreasing arrangements can only be >=.
  EXPECT_GE(opt.solution.obj2, 2.5889 - 1.5e-4);
  EXPECT_EQ(opt.arrangements_tried, 42u);
}

}  // namespace
}  // namespace hetgrid
