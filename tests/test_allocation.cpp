// Tests for CycleTimeGrid and the allocation/objective machinery
// (paper Section 4.1).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/allocation.hpp"
#include "core/cycle_time_grid.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

// ----------------------------------------------------- grid basics

TEST(CycleTimeGrid, RowMajorIndexing) {
  CycleTimeGrid g(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(g(1, 2), 6.0);
}

TEST(CycleTimeGrid, RejectsNonPositiveTimes) {
  EXPECT_THROW(CycleTimeGrid(1, 2, {1.0, 0.0}), PreconditionError);
  EXPECT_THROW(CycleTimeGrid(1, 2, {1.0, -3.0}), PreconditionError);
}

TEST(CycleTimeGrid, RejectsTimesThatOverflowWhenInvertedOrSummed) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CycleTimeGrid(1, 2, {1.0, inf}), PreconditionError);
  EXPECT_THROW(CycleTimeGrid(1, 2, {1.0, nan}), PreconditionError);
  // 1/t overflows: the capacity bound would be infinite.
  EXPECT_THROW(CycleTimeGrid(2, 2, {1e-320, 1.0, 1.0, 1.0}),
               PreconditionError);
  // Every t and 1/t is finite, but the sum of t overflows.
  EXPECT_THROW(CycleTimeGrid(2, 2, {1e308, 1e308, 1e308, 1e308}),
               PreconditionError);
  // Sums are finite, the spread max/min is not.
  EXPECT_THROW(CycleTimeGrid(1, 2, {1e-200, 1e200}), PreconditionError);

  EXPECT_EQ(cycle_time_error({1.0, 2.0, 3.0, 6.0}), "");
  EXPECT_NE(cycle_time_error({1e308, 1e308}), "");
  // Wide but representable pools stay valid.
  const CycleTimeGrid wide(1, 2, {1e-150, 1e150});
  EXPECT_TRUE(std::isfinite(wide.total_capacity()));
}

TEST(CycleTimeGrid, RejectsWrongSize) {
  EXPECT_THROW(CycleTimeGrid(2, 2, {1.0, 2.0}), PreconditionError);
}

TEST(CycleTimeGrid, FromArrangementPlacesPoolByPermutation) {
  // perm maps grid position -> pool index.
  const CycleTimeGrid g = CycleTimeGrid::from_arrangement(
      2, 2, {10.0, 20.0, 30.0, 40.0}, {3, 1, 0, 2});
  EXPECT_DOUBLE_EQ(g(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 30.0);
}

TEST(CycleTimeGrid, FromArrangementRejectsNonPermutation) {
  EXPECT_THROW(CycleTimeGrid::from_arrangement(2, 1, {1.0, 2.0}, {0, 0}),
               PreconditionError);
}

TEST(CycleTimeGrid, SortedRowMajorIsNonDecreasing) {
  const CycleTimeGrid g =
      CycleTimeGrid::sorted_row_major(2, 3, {9, 1, 5, 3, 7, 2});
  EXPECT_TRUE(g.is_non_decreasing());
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(1, 2), 9.0);
}

TEST(CycleTimeGrid, NonDecreasingDetection) {
  EXPECT_TRUE(CycleTimeGrid(2, 2, {1, 2, 3, 6}).is_non_decreasing());
  EXPECT_FALSE(CycleTimeGrid(2, 2, {2, 1, 3, 6}).is_non_decreasing());
  EXPECT_FALSE(CycleTimeGrid(2, 2, {1, 2, 3, 1}).is_non_decreasing());
  // Paper's converged 3x3 arrangement is non-decreasing along rows and
  // columns even though it is not sorted row-major.
  EXPECT_TRUE(
      CycleTimeGrid(3, 3, {1, 2, 3, 4, 6, 8, 5, 7, 9}).is_non_decreasing());
}

TEST(CycleTimeGrid, RankOneDetection) {
  // Paper's Figure 1 grid {1,2;3,6} is rank 1; {1,2;3,5} is not.
  EXPECT_TRUE(CycleTimeGrid(2, 2, {1, 2, 3, 6}).is_rank_one());
  EXPECT_FALSE(CycleTimeGrid(2, 2, {1, 2, 3, 5}).is_rank_one());
}

TEST(CycleTimeGrid, TotalCapacitySumsInverses) {
  const CycleTimeGrid g(2, 2, {1, 2, 4, 4});
  EXPECT_DOUBLE_EQ(g.total_capacity(), 1.0 + 0.5 + 0.25 + 0.25);
}

TEST(CycleTimeGrid, ToStringContainsValues) {
  const CycleTimeGrid g(1, 2, {1.5, 2.5});
  const std::string s = g.to_string(1);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

// ----------------------------------------------------- objectives

TEST(Allocation, WorkloadMatrixMatchesDefinition) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const GridAllocation a{{3.0, 1.0}, {2.0, 1.0}};
  const auto b = workload_matrix(g, a);
  EXPECT_DOUBLE_EQ(b[0], 3.0 * 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(b[1], 3.0 * 2.0 * 1.0);
  EXPECT_DOUBLE_EQ(b[2], 1.0 * 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(b[3], 1.0 * 6.0 * 1.0);
}

TEST(Allocation, Obj2IsProductOfSums) {
  const GridAllocation a{{1.0, 2.0}, {0.5, 0.5, 1.0}};
  EXPECT_DOUBLE_EQ(obj2_value(a), 3.0 * 2.0);
}

TEST(Allocation, Obj1IsWorstOverProduct) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  // Perfectly balanced allocation: worst = 6, sums = 4 * 3.
  const GridAllocation a{{3.0, 1.0}, {2.0, 1.0}};
  EXPECT_DOUBLE_EQ(obj1_value(g, a), 6.0 / 12.0);
}

TEST(Allocation, FeasibilityBoundary) {
  const CycleTimeGrid g(1, 1, {2.0});
  EXPECT_TRUE(is_feasible(g, {{0.5}, {1.0}}));
  EXPECT_TRUE(is_feasible(g, {{0.5}, {1.0 + 1e-12}}));
  EXPECT_FALSE(is_feasible(g, {{0.5}, {1.1}}));
  EXPECT_FALSE(is_feasible(g, {{-0.1}, {1.0}}));
}

TEST(Allocation, ShapeMismatchThrows) {
  const CycleTimeGrid g(2, 2, {1, 1, 1, 1});
  EXPECT_THROW(workload_matrix(g, {{1.0}, {1.0, 1.0}}), PreconditionError);
}

// ----------------------------------------------------- normalize_tight

TEST(NormalizeTight, PaperFigure1AllocationIsPerfect) {
  // {1,2;3,6} with raw shares r=(1,1), c=(1,1): normalization must reach
  // the perfectly balanced point (up to scaling).
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  GridAllocation a{{1.0, 1.0}, {1.0, 1.0}};
  normalize_tight(g, a);
  EXPECT_TRUE(is_feasible(g, a));
  EXPECT_TRUE(is_tight(g, a));
}

TEST(NormalizeTight, ResultAlwaysFeasibleAndTight) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t p = 1 + rng.below(4);
    const std::size_t q = 1 + rng.below(4);
    const CycleTimeGrid g(p, q, rng.cycle_times(p * q));
    GridAllocation a;
    for (std::size_t i = 0; i < p; ++i)
      a.r.push_back(rng.uniform(0.1, 5.0));
    for (std::size_t j = 0; j < q; ++j)
      a.c.push_back(rng.uniform(0.1, 5.0));
    normalize_tight(g, a);
    EXPECT_TRUE(is_feasible(g, a)) << "trial " << trial;
    EXPECT_TRUE(is_tight(g, a)) << "trial " << trial;
  }
}

TEST(NormalizeTight, ScaleInvariant) {
  // Scaling the raw shares must not change the normalized objective.
  const CycleTimeGrid g(2, 3, {1, 2, 3, 2, 4, 6});
  GridAllocation a{{1.0, 0.5}, {1.0, 0.7, 0.3}};
  GridAllocation b{{10.0, 5.0}, {0.2, 0.14, 0.06}};
  normalize_tight(g, a);
  normalize_tight(g, b);
  EXPECT_NEAR(obj2_value(a), obj2_value(b), 1e-12);
}

TEST(NormalizeTight, RejectsZeroShares) {
  const CycleTimeGrid g(1, 1, {1.0});
  GridAllocation a{{0.0}, {1.0}};
  EXPECT_THROW(normalize_tight(g, a), PreconditionError);
}

TEST(Allocation, Obj2NeverExceedsCapacityBound) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t p = 1 + rng.below(3);
    const std::size_t q = 1 + rng.below(3);
    const CycleTimeGrid g(p, q, rng.cycle_times(p * q));
    GridAllocation a;
    for (std::size_t i = 0; i < p; ++i) a.r.push_back(rng.uniform(0.1, 2.0));
    for (std::size_t j = 0; j < q; ++j) a.c.push_back(rng.uniform(0.1, 2.0));
    normalize_tight(g, a);
    EXPECT_LE(obj2_value(a), obj2_upper_bound(g) * (1.0 + 1e-9))
        << "trial " << trial;
  }
}

TEST(Allocation, AverageWorkloadIsOneOnlyAtPerfectBalance) {
  const CycleTimeGrid rank1(2, 2, {1, 2, 3, 6});
  GridAllocation perfect{{1.0, 1.0 / 3.0}, {1.0, 0.5}};
  EXPECT_NEAR(average_workload(rank1, perfect), 1.0, 1e-12);

  const CycleTimeGrid notrank1(2, 2, {1, 2, 3, 5});
  GridAllocation a{{1.0, 1.0 / 3.0}, {1.0, 0.5}};
  normalize_tight(notrank1, a);
  EXPECT_LT(average_workload(notrank1, a), 1.0);
}

}  // namespace
}  // namespace hetgrid
