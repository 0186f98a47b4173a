// Extended simulator coverage: kernel cost relationships, scale
// invariances, custom cost weights, and hand-computed small cases.
#include <gtest/gtest.h>

#include "core/heuristic.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Machine machine_of(CycleTimeGrid g, NetworkModel net = NetworkModel::free()) {
  return Machine{std::move(g), net};
}

// ----------------------------------------------------- scale invariance

class SimScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(SimScaleInvariance, CycleTimeScalingScalesComputeLinearly) {
  const double s = GetParam();
  Rng rng(7);
  const std::vector<double> pool = rng.cycle_times(4, 0.1);
  std::vector<double> scaled(pool);
  for (double& t : scaled) t *= s;

  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport base =
      simulate_mmm(machine_of(CycleTimeGrid(2, 2, pool)), d, 8);
  const SimReport sc =
      simulate_mmm(machine_of(CycleTimeGrid(2, 2, scaled)), d, 8);
  EXPECT_NEAR(sc.compute_time, s * base.compute_time,
              1e-9 * sc.compute_time);
  EXPECT_NEAR(sc.perfect_compute_bound, s * base.perfect_compute_bound,
              1e-9 * sc.perfect_compute_bound);
  // Slowdown ratio is scale-free.
  EXPECT_NEAR(sc.slowdown_vs_perfect(), base.slowdown_vs_perfect(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, SimScaleInvariance,
                         ::testing::Values(0.5, 2.0, 10.0));

TEST(SimScale, MmmComputeGrowsCubically) {
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = machine_of(CycleTimeGrid(2, 2, {1, 1, 1, 1}));
  const double t8 = simulate_mmm(m, d, 8).compute_time;
  const double t16 = simulate_mmm(m, d, 16).compute_time;
  EXPECT_NEAR(t16 / t8, 8.0, 1e-9);  // (16/8)^3
}

TEST(SimScale, LuComputeGrowsCubically) {
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = machine_of(CycleTimeGrid(2, 2, {1, 1, 1, 1}));
  const double t8 = simulate_lu(m, d, 8).compute_time;
  const double t16 = simulate_lu(m, d, 16).compute_time;
  // Asymptotically 8x; small-n lower-order terms push it slightly below.
  EXPECT_GT(t16 / t8, 6.5);
  EXPECT_LT(t16 / t8, 8.5);
}

// ----------------------------------------------------- kernel relations

TEST(SimKernels, CholeskyIsRoughlyHalfOfLu) {
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = machine_of(CycleTimeGrid(2, 2, {1, 1, 1, 1}));
  const double lu = simulate_lu(m, d, 32).compute_time;
  const double ch = simulate_cholesky(m, d, 32).compute_time;
  EXPECT_GT(ch, 0.35 * lu);
  EXPECT_LT(ch, 0.75 * lu);
}

TEST(SimKernels, QrIsRoughlyTwiceLu) {
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = machine_of(CycleTimeGrid(2, 2, {1, 1, 1, 1}));
  const double lu = simulate_lu(m, d, 32).compute_time;
  const double qr = simulate_qr(m, d, 32).compute_time;
  EXPECT_GT(qr, 1.5 * lu);
  EXPECT_LT(qr, 3.0 * lu);
}

TEST(SimKernels, CustomCostsScaleReports) {
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = machine_of(CycleTimeGrid(2, 2, {1, 2, 3, 6}));
  KernelCosts doubled;
  doubled.update = 2.0;
  const double base = simulate_mmm(m, d, 8).compute_time;
  const double two = simulate_mmm(m, d, 8, doubled).compute_time;
  EXPECT_NEAR(two, 2.0 * base, 1e-9);
}

TEST(SimKernels, MmmBusySumsToTotalWorkVolume) {
  Rng rng(9);
  const CycleTimeGrid g(2, 3, rng.cycle_times(6, 0.1));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 3);
  const std::size_t nb = 12;
  const SimReport rep = simulate_mmm(machine_of(g), d, nb);
  // Sum over processors of busy / t equals the number of block updates.
  double updates = 0.0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      updates += rep.busy[i * 3 + j] / g(i, j);
  EXPECT_NEAR(updates, static_cast<double>(nb * nb * nb), 1e-6);
}

TEST(SimKernels, LuBusySumsToTotalWorkVolume) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const std::size_t nb = 10;
  const SimReport rep = simulate_lu(machine_of(g), d, nb);
  double weighted_ops = 0.0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      weighted_ops += rep.busy[i * 2 + j] / g(i, j);
  // Volume: sum_k [ (nb-k)*0.5 panel + (nb-k-1)*0.5 trsm + (nb-k-1)^2 ].
  double expect = 0.0;
  for (std::size_t k = 0; k < nb; ++k) {
    const double rest = static_cast<double>(nb - k - 1);
    expect += 0.5 * static_cast<double>(nb - k) + 0.5 * rest + rest * rest;
  }
  EXPECT_NEAR(weighted_ops, expect, 1e-6);
}

// ----------------------------------------------------- communication

TEST(SimComm, FreeNetworkMeansZeroCommEverywhere) {
  const CycleTimeGrid g(3, 3, std::vector<double>(9, 0.3));
  const PanelDistribution d = PanelDistribution::block_cyclic(3, 3);
  for (auto sim : {simulate_mmm, simulate_lu, simulate_qr,
                   simulate_cholesky}) {
    KernelCosts costs;
    const SimReport rep = sim(machine_of(g), d, 9, costs, nullptr, {});
    EXPECT_DOUBLE_EQ(rep.comm_time, 0.0);
  }
}

TEST(SimComm, LatencyOnlyNetworkChargesPerBroadcast) {
  // latency 1, zero bandwidth cost, 2x2 homogeneous, nb=4, MMM: per step
  // one horizontal + one vertical broadcast on the critical path
  // (switched: max over rows/cols) -> comm = nb * 2 * latency.
  NetworkModel net{Topology::kSwitched, 1.0, 0.0, true};
  const CycleTimeGrid g(2, 2, std::vector<double>(4, 1.0));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_mmm(machine_of(g, net), d, 4);
  EXPECT_DOUBLE_EQ(rep.comm_time, 4.0 * 2.0);
}

TEST(SimComm, EthernetSumsOverRings) {
  NetworkModel sw{Topology::kSwitched, 1.0, 0.0, true};
  NetworkModel eth{Topology::kEthernet, 1.0, 0.0, true};
  const CycleTimeGrid g(3, 3, std::vector<double>(9, 1.0));
  const PanelDistribution d = PanelDistribution::block_cyclic(3, 3);
  const double c_sw = simulate_mmm(machine_of(g, sw), d, 3).comm_time;
  const double c_eth = simulate_mmm(machine_of(g, eth), d, 3).comm_time;
  // Switched: per step max over 3 rows + max over 3 cols = 2; Ethernet:
  // 3 + 3 = 6.
  EXPECT_NEAR(c_eth / c_sw, 3.0, 1e-9);
}

TEST(SimComm, KalinovLastovetskyCommVariesPerStep) {
  // Under K-L the A panel's per-row block counts depend on the step's
  // column owner, so per-step comm is not constant; the simulator must
  // still produce a finite, positive total.
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  NetworkModel net{Topology::kSwitched, 1e-3, 1e-3, true};
  const SimReport rep = simulate_mmm(machine_of(g, net), kl, 56);
  EXPECT_GT(rep.comm_time, 0.0);
  EXPECT_DOUBLE_EQ(rep.total_time, rep.compute_time + rep.comm_time);
}

// ----------------------------------------------------- hand-computed

TEST(SimHand, Mmm1x1SingleProcessor) {
  const CycleTimeGrid g(1, 1, {0.25});
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  const SimReport rep = simulate_mmm(machine_of(g), d, 4);
  // 4 steps x 16 blocks x 0.25 = 16; no communication possible.
  EXPECT_DOUBLE_EQ(rep.total_time, 16.0);
  EXPECT_DOUBLE_EQ(rep.comm_time, 0.0);
  EXPECT_NEAR(rep.average_utilization(), 1.0, 1e-12);
}

TEST(SimHand, CholeskyNb1IsJustTheDiagonalFactor) {
  const CycleTimeGrid g(1, 1, {2.0});
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  const SimReport rep = simulate_cholesky(machine_of(g), d, 1);
  EXPECT_DOUBLE_EQ(rep.compute_time, 2.0 * 0.5);  // chol_factor weight
}

// ----------------------------------------------------- step traces

TEST(SimTrace, StepRecordsSumToReportTotals) {
  Rng rng(31);
  const CycleTimeGrid g(2, 2, rng.cycle_times(4, 0.1));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  NetworkModel net{Topology::kSwitched, 1e-3, 1e-3, true};
  for (auto sim : {simulate_mmm, simulate_lu, simulate_qr,
                   simulate_cholesky}) {
    KernelCosts costs;
    const SimReport rep = sim(machine_of(g, net), d, 10, costs, nullptr, {});
    ASSERT_EQ(rep.steps.size(), 10u) << rep.kernel;
    double compute = 0.0, comm = 0.0;
    for (const StepRecord& s : rep.steps) {
      compute += s.panel + s.row + s.update;
      comm += s.comm;
    }
    EXPECT_NEAR(compute, rep.compute_time, 1e-9) << rep.kernel;
    EXPECT_NEAR(comm, rep.comm_time, 1e-9) << rep.kernel;
  }
}

TEST(SimTrace, FactorizationStepsShrinkTowardsTheEnd) {
  const CycleTimeGrid g(2, 2, std::vector<double>(4, 1.0));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_lu(machine_of(g), d, 16);
  // The trailing update dominates early and vanishes at the last step.
  EXPECT_GT(rep.steps.front().update, rep.steps.back().update);
  EXPECT_DOUBLE_EQ(rep.steps.back().update, 0.0);
  EXPECT_GT(rep.steps.back().panel, 0.0);
}

TEST(SimTrace, MmmStepsAreUniform) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_mmm(machine_of(g), d, 8);
  for (const StepRecord& s : rep.steps) {
    EXPECT_DOUBLE_EQ(s.update, rep.steps.front().update);
    EXPECT_DOUBLE_EQ(s.panel, 0.0);
    EXPECT_DOUBLE_EQ(s.row, 0.0);
  }
}

TEST(SimHand, LuTwoStepsHeterogeneous) {
  // Grid {1,2;3,6}, block-cyclic, nb=2, free network.
  // k=0: panel rows {0,1} col 0: max(1*1, 1*3)*0.5 = 1.5;
  //      row panel (0,1): 1 block * t(0,1)=2 * 0.5 = 1.0;
  //      trailing (1,1): 1 block * 6 = 6.  Step = 8.5.
  // k=1: panel (1,1): 1 block * 6 * 0.5 = 3.  Total = 11.5.
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_lu(machine_of(g), d, 2);
  EXPECT_DOUBLE_EQ(rep.compute_time, 11.5);
}

// ----------------------------------------------------- Cholesky

TEST(SimCholesky, PerfectBoundAndMonotonicity) {
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    const CycleTimeGrid g(2, 2, rng.cycle_times(4, 0.05));
    const Machine m{g, NetworkModel::free()};
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const SimReport rep = simulate_cholesky(m, d, 16);
    EXPECT_GE(rep.total_time, rep.perfect_compute_bound - 1e-9);
    EXPECT_DOUBLE_EQ(rep.total_time, rep.compute_time + rep.comm_time);
  }
}

TEST(SimCholesky, HeterogeneousPanelBeatsBlockCyclic) {
  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 6});
  const Machine m{h.final().grid, NetworkModel::free()};
  const PanelDistribution het = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het");
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  EXPECT_LT(simulate_cholesky(m, het, 48).total_time,
            simulate_cholesky(m, bc, 48).total_time);
}

}  // namespace
}  // namespace hetgrid
