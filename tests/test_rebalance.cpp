// Tests for the online panel-boundary rebalancer (doc/rebalance.md):
// plan_rebalance()'s act/hold thresholds and minimal-churn slot remapping,
// the estimated-rate-grid overlay, the drift traces the rebalancer is
// evaluated against, the EWMA-alpha contract (alpha = 1 reproduces
// instantaneous rates), the OnlineRebalancer both backends hold (holds,
// traced rates, estimator feed, and which lines an acting re-solve
// rewrites), the bulk-synchronous simulator's rebalancing path (a planted
// 4x straggler rebalanced to within 15% of the imbalance report's balanced
// lower bound), and the message-passing runtime's migration path (same
// acceptance scenario with real numerics, all four kernels deterministic
// across thread counts, a rebalanced LU bit-identical to the static one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/drift.hpp"
#include "core/rebalance.hpp"
#include "dist/online_rebalancer.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/matrix.hpp"
#include "matrix/norms.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/cycle_estimator.hpp"
#include "obs/imbalance.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

#include "mp_counters.hpp"

namespace hetgrid {
namespace {

using Rebalance = RuntimeOptions::Rebalance;

bool same_bits(const ConstMatrixView& a, const ConstMatrixView& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

Machine uniform_machine(std::size_t p, std::size_t q) {
  return Machine{CycleTimeGrid(p, q, std::vector<double>(p * q, 1.0)),
                 NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4, true}};
}

// The planted-straggler acceptance scenario (EXPERIMENTS section 16): a
// uniform 2x2 grid whose first grid row (processors 0 and 1) runs 4x
// slower from step 0 on.
RuntimeOptions straggler_options(Rebalance rebalance) {
  RuntimeOptions opts;
  opts.rebalance = rebalance;
  opts.trace = CycleTimeTrace::straggler({0, 1}, 4.0, 0);
  opts.estimator.alpha = 1.0;  // instantaneous rates: no EWMA warm-up lag
  opts.estimator.min_samples = 1;
  return opts;
}

// ----------------------------------------------------- plan_rebalance

TEST(PlanRebalance, HoldsWhenAllocationAlreadyBalanced) {
  // Uniform rates, balanced maps: the re-solve reproduces the current
  // multiplicities, so nothing moves and the planner holds.
  const CycleTimeGrid rates(2, 2, {1.0, 1.0, 1.0, 1.0});
  const std::vector<std::size_t> rows{0, 0, 1, 1}, cols{0, 1, 0, 1};
  const RebalanceDecision d = plan_rebalance(
      rates, rows, cols, RebalanceRegion{0, 4, 0, 4, false, 10.0, 0.01, 1.0});
  EXPECT_FALSE(d.act);
  EXPECT_EQ(d.row_map, rows);
  EXPECT_EQ(d.col_map, cols);
  EXPECT_EQ(d.blocks_to_move, 0u);
  EXPECT_EQ(d.row_slots_changed + d.col_slots_changed, 0u);
  EXPECT_DOUBLE_EQ(d.current_sweep, d.proposed_sweep);
}

TEST(PlanRebalance, ShiftsSlotsTowardFastRowsWithMinimalChurn) {
  // Grid row 0 runs 4x slower: shares (0.2, 0.8) round to row slots
  // (1, 3). Minimal churn means row 0 gives up exactly its highest-index
  // slot (position 1) and nothing else changes: 1 row line x 4 region
  // columns = 4 migrated blocks.
  const CycleTimeGrid rates(2, 2, {4.0, 4.0, 1.0, 1.0});
  const std::vector<std::size_t> rows{0, 0, 1, 1}, cols{0, 0, 1, 1};
  const RebalanceDecision d = plan_rebalance(
      rates, rows, cols, RebalanceRegion{0, 4, 0, 4, false, 10.0, 0.01, 1.0});
  EXPECT_TRUE(d.act);
  EXPECT_EQ(d.row_map, (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(d.col_map, cols);
  EXPECT_EQ(d.row_slots_changed, 1u);
  EXPECT_EQ(d.col_slots_changed, 0u);
  EXPECT_EQ(d.blocks_to_move, 4u);
  // Current: the slow (0,0) owns 2x2 blocks at rate 4 -> sweep 16.
  // Proposed: row 0 keeps 1 line (2 blocks x 4 = 8), row 1's processors
  // sweep 3x2 blocks at rate 1 = 6 -> sweep 8.
  EXPECT_DOUBLE_EQ(d.current_sweep, 16.0);
  EXPECT_DOUBLE_EQ(d.proposed_sweep, 8.0);
  EXPECT_DOUBLE_EQ(d.predicted_gain, 80.0);
  EXPECT_DOUBLE_EQ(d.migration_cost, 0.04);
}

TEST(PlanRebalance, BlockMultiplierScalesTheMigrationBill) {
  // MMM drags A, B, and C along with every owner change: same proposal,
  // three times the bill.
  const CycleTimeGrid rates(2, 2, {4.0, 4.0, 1.0, 1.0});
  const std::vector<std::size_t> rows{0, 0, 1, 1}, cols{0, 0, 1, 1};
  const RebalanceDecision d = plan_rebalance(
      rates, rows, cols, RebalanceRegion{0, 4, 0, 4, false, 10.0, 0.01, 3.0});
  EXPECT_EQ(d.blocks_to_move, 12u);
  EXPECT_DOUBLE_EQ(d.migration_cost, 0.12);
}

TEST(PlanRebalance, MigrationCostThresholdHolds) {
  // The same profitable proposal, but with a prohibitive per-block transfer
  // cost and almost no remaining sweeps to amortize it: the planner still
  // reports the proposal (maps, blocks, cost) but refuses to act.
  const CycleTimeGrid rates(2, 2, {4.0, 4.0, 1.0, 1.0});
  const std::vector<std::size_t> rows{0, 0, 1, 1}, cols{0, 0, 1, 1};
  const RebalanceDecision d = plan_rebalance(
      rates, rows, cols,
      RebalanceRegion{0, 4, 0, 4, false, 0.01, 1000.0, 1.0});
  EXPECT_FALSE(d.act);
  EXPECT_EQ(d.row_map, (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(d.blocks_to_move, 4u);
  EXPECT_DOUBLE_EQ(d.migration_cost, 4000.0);
  EXPECT_LT(d.predicted_gain, d.migration_cost);
}

TEST(PlanRebalance, MinGainBandAbsorbsSmallDrift) {
  // A 2% slowdown re-solves to the same slot counts (shares 0.495/0.505
  // round back to 2/2), so the proposal is a no-op and act stays false —
  // the band keeps the rebalancer from thrashing on noise.
  const CycleTimeGrid rates(2, 2, {1.02, 1.02, 1.0, 1.0});
  const std::vector<std::size_t> rows{0, 0, 1, 1}, cols{0, 1, 0, 1};
  const RebalanceDecision d = plan_rebalance(
      rates, rows, cols, RebalanceRegion{0, 4, 0, 4, false, 10.0, 0.01, 1.0});
  EXPECT_FALSE(d.act);
  EXPECT_EQ(d.blocks_to_move, 0u);
  EXPECT_EQ(d.row_map, rows);
  EXPECT_EQ(d.col_map, cols);
}

TEST(PlanRebalance, MinGainBandHoldsAPayingMoveUnderFivePercent) {
  // A 10% slowdown on grid row 0 of 40 row slots: the re-solve moves one
  // slot (20/20 -> 19/21) and the move is free, so it pays, but the region
  // sweep only drops from 22 to 21 (4.5%). The min-gain band alone holds it.
  const CycleTimeGrid rates(2, 1, {1.1, 1.0});
  std::vector<std::size_t> rows(40, 1);
  std::fill(rows.begin(), rows.begin() + 20, 0);
  const std::vector<std::size_t> cols{0};
  const RebalanceDecision d = plan_rebalance(
      rates, rows, cols, RebalanceRegion{0, 40, 0, 1, false, 10.0, 0.0, 1.0});
  EXPECT_EQ(d.row_slots_changed, 1u);
  EXPECT_EQ(d.col_slots_changed, 0u);
  EXPECT_EQ(std::count(d.row_map.begin(), d.row_map.end(), 0u), 19);
  EXPECT_NEAR(d.current_sweep, 22.0, 1e-12);
  EXPECT_NEAR(d.proposed_sweep, 21.0, 1e-12);
  EXPECT_NEAR(d.predicted_gain, 10.0, 1e-12);
  EXPECT_EQ(d.migration_cost, 0.0);
  EXPECT_GT(d.predicted_gain, kRebalanceCostThreshold * d.migration_cost);
  EXPECT_GE(d.proposed_sweep, (1.0 - kRebalanceMinGain) * d.current_sweep);
  EXPECT_FALSE(d.act);
}

TEST(PlanRebalance, LowerOnlyRegionPricesOnlyLowerBlocks) {
  // Processor (0, 1) is 10x slower but owns only the strictly-upper block
  // (0, 1) of a 2x2 region: with lower_only the region sweep ignores it.
  const CycleTimeGrid rates(2, 2, {1.0, 10.0, 1.0, 1.0});
  const std::vector<std::size_t> rows{0, 1}, cols{0, 1};
  RebalanceRegion reg{0, 2, 0, 2, true, 1.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(plan_rebalance(rates, rows, cols, reg).current_sweep, 1.0);
  reg.lower_only = false;
  EXPECT_DOUBLE_EQ(plan_rebalance(rates, rows, cols, reg).current_sweep, 10.0);
}

TEST(EstimatedRateGrid, OverlaysArmedLanesOnStaticFallback) {
  const CycleTimeGrid fallback(2, 2, {1.0, 1.0, 1.0, 1.0});
  std::vector<CycleEstimate> est;
  est.push_back({1, ObsOp::kUpdate, 0.5, 10.0, 3});   // overlays (0, 1)
  est.push_back({0, ObsOp::kPanel, 9.0, 10.0, 5});    // wrong op: ignored
  est.push_back({2, ObsOp::kUpdate, 7.0, 1.0, 1});    // under-sampled
  est.push_back({17, ObsOp::kUpdate, 7.0, 10.0, 9});  // out of range
  const CycleTimeGrid g =
      estimated_rate_grid(est, fallback, ObsOp::kUpdate, 2);
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 1.0);
}

// ----------------------------------------------------- drift traces

TEST(CycleTimeTrace, StepRampAndRecoveryShapes) {
  CycleTimeTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.factor(0, 0), 1.0);

  t.add_step(2, 3.0, 5);
  EXPECT_FALSE(t.empty());
  EXPECT_DOUBLE_EQ(t.factor(2, 4), 1.0);
  EXPECT_DOUBLE_EQ(t.factor(2, 5), 3.0);
  EXPECT_DOUBLE_EQ(t.factor(2, 99), 3.0);
  EXPECT_DOUBLE_EQ(t.factor(1, 5), 1.0);  // other processors untouched

  CycleTimeTrace ramp;
  ramp.add_ramp(0, 5.0, 2, 4);  // 1 -> 5 over steps [2, 6)
  EXPECT_DOUBLE_EQ(ramp.factor(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ramp.factor(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(ramp.factor(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(ramp.factor(0, 5), 5.0);
  EXPECT_DOUBLE_EQ(ramp.factor(0, 6), 5.0);  // holds after the ramp

  CycleTimeTrace rec;
  rec.add_recovery(1, 4.0, 3, 6);
  EXPECT_DOUBLE_EQ(rec.factor(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(rec.factor(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(rec.factor(1, 5), 4.0);
  EXPECT_DOUBLE_EQ(rec.factor(1, 6), 1.0);  // healed
}

TEST(CycleTimeTrace, FactorsOnTheSameProcessorCompose) {
  CycleTimeTrace t;
  t.add_step(0, 2.0, 0).add_step(0, 3.0, 4);
  EXPECT_DOUBLE_EQ(t.factor(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.factor(0, 4), 6.0);
}

TEST(CycleTimeTrace, StragglerPresetCoversProcsAndRecovery) {
  const CycleTimeTrace t = CycleTimeTrace::straggler({0, 2}, 4.0, 1, 5);
  EXPECT_DOUBLE_EQ(t.factor(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.factor(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(t.factor(2, 4), 4.0);
  EXPECT_DOUBLE_EQ(t.factor(0, 5), 1.0);  // recovered
  EXPECT_DOUBLE_EQ(t.factor(1, 3), 1.0);  // not a straggler

  const CycleTimeTrace forever = CycleTimeTrace::straggler({1}, 2.0, 3);
  EXPECT_DOUBLE_EQ(forever.factor(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(forever.factor(1, 1000), 2.0);  // never recovers
}

// ----------------------------------------------------- estimator alpha

TEST(EstimatorAlpha, AlphaOneReproducesInstantaneousRates) {
  // With alpha = 1 the EWMA is the newest sample: after a rate change the
  // estimate is exactly the post-change seconds-per-unit, no warm-up lag.
  // This is what makes the acceptance scenarios converge in one step.
  CycleTimeEstimator::Options opt;
  opt.alpha = 1.0;
  opt.min_samples = 1;
  CycleTimeEstimator est(opt);
  est.sample(0, ObsOp::kUpdate, 2.0, 8.0, 0);  // 4 s/unit
  est.sample(0, ObsOp::kUpdate, 2.0, 3.0, 1);  // 1.5 s/unit
  const std::vector<CycleEstimate> e = est.estimates();
  ASSERT_EQ(e.size(), 1u);
  EXPECT_DOUBLE_EQ(e[0].seconds_per_unit, 1.5);

  // Contrast: the default-style alpha blends history.
  CycleTimeEstimator::Options half;
  half.alpha = 0.5;
  CycleTimeEstimator blended(half);
  blended.sample(0, ObsOp::kUpdate, 2.0, 8.0, 0);
  blended.sample(0, ObsOp::kUpdate, 2.0, 3.0, 1);
  EXPECT_DOUBLE_EQ(blended.estimates()[0].seconds_per_unit, 2.75);
}

// ----------------------------------------------------- online rebalancer

TEST(OnlineRebalancer, OffFollowsTheDistributionAndStillTracesRates) {
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const RuntimeOptions opts = straggler_options(Rebalance::kOff);
  RunObservation obs;
  OnlineRebalancer reb(machine, dist, opts, 8, 8, &obs);
  EXPECT_FALSE(reb.on());
  for (std::size_t bi = 0; bi < 8; ++bi)
    for (std::size_t bj = 0; bj < 8; ++bj)
      EXPECT_EQ(reb.owner(bi, bj), dist.owner(bi, bj));
  // The drift trace applies whether or not the rebalancer acts on it.
  EXPECT_EQ(reb.cycle_time(1, 0), 4.0);
  EXPECT_EQ(reb.cycle_time(2, 0), 1.0);
  // Samples still reach an installed observation; nothing is re-solved.
  reb.sample(1, ObsOp::kUpdate, 2.0, 8.0, 0);
  ASSERT_EQ(obs.estimator.estimates().size(), 1u);
  EXPECT_EQ(obs.estimator.estimates()[0].seconds_per_unit, 4.0);
  EXPECT_FALSE(
      reb.replan(3, RebalanceRegion::trailing(3, 8, 8)).has_value());
}

TEST(OnlineRebalancer, HoldsOnSmallRegionsAndRewritesOnlyTrailingLines) {
  // Uniform 2x2 grid, block-cyclic over 8 x 8 blocks, grid row 0 slowed 4x
  // and every processor sampled once at its traced rate.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const RuntimeOptions opts = straggler_options(Rebalance::kPanel);
  const std::size_t nb = 8;
  OnlineRebalancer reb(machine, dist, opts, nb, nb, nullptr);
  ASSERT_TRUE(reb.on());
  for (std::size_t id = 0; id < 4; ++id)
    reb.sample(id, ObsOp::kUpdate, 2.0, 2.0 * reb.cycle_time(id, 0), 0);

  // Step 0 never re-solves, and neither does a region with fewer block
  // rows than p or fewer block columns than q.
  EXPECT_FALSE(
      reb.replan(0, RebalanceRegion::trailing(0, nb, nb)).has_value());
  EXPECT_FALSE(
      reb.replan(7, RebalanceRegion::trailing(7, nb, nb)).has_value());
  RebalanceRegion narrow = RebalanceRegion::trailing(3, nb, nb);
  narrow.col_lo = nb - 1;
  EXPECT_FALSE(reb.replan(3, narrow).has_value());
  for (std::size_t bi = 0; bi < nb; ++bi)
    for (std::size_t bj = 0; bj < nb; ++bj)
      EXPECT_EQ(reb.owner(bi, bj), dist.owner(bi, bj));

  // The full trailing region at step 3 acts: grid row 0 gives up rows.
  const std::optional<RebalanceDecision> d =
      reb.replan(3, RebalanceRegion::trailing(3, nb, nb));
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->act);
  EXPECT_DOUBLE_EQ(d->migration_cost,
                   static_cast<double>(d->blocks_to_move) *
                       (machine.net.latency + machine.net.block_transfer));
  ASSERT_EQ(d->row_map.size(), nb - 3);
  ASSERT_EQ(d->col_map.size(), nb - 3);
  std::size_t rewritten = 0, slow_rows_before = 0, slow_rows_after = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t row = reb.owner(b, 0).row, col = reb.owner(0, b).col;
    if (b < 3) {  // lines before the region's origin keep their owners
      EXPECT_EQ(row, dist.owner(b, 0).row) << "block row " << b;
      EXPECT_EQ(col, dist.owner(0, b).col) << "block column " << b;
    } else {  // lines at or past it follow the decision
      EXPECT_EQ(row, d->row_map[b - 3]) << "block row " << b;
      EXPECT_EQ(col, d->col_map[b - 3]) << "block column " << b;
      rewritten += (row != dist.owner(b, 0).row) +
                   (col != dist.owner(0, b).col);
      slow_rows_before += dist.owner(b, 0).row == 0;
      slow_rows_after += row == 0;
    }
  }
  EXPECT_GE(rewritten, 1u);
  EXPECT_LT(slow_rows_after, slow_rows_before);
}

// ----------------------------------------------------- simulator rebalancing

TEST(DynamicSim, StragglerRebalanceBeatsStaticAndApproachesBound) {
  // The acceptance scenario: MMM on a uniform 2x2 grid, block-cyclic
  // distribution, nb = 20, grid row 0 slowed 4x from step 0. Static plan:
  // every step sweeps at the stragglers' pace. Rebalanced: one migration
  // at the first boundary hands row 0 its fair 4-of-20 row slots. Required:
  // >= 25% makespan reduction AND within 15% of the imbalance report's
  // balanced lower bound under the post-drift rates.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t nb = 20;

  const SimReport stat = simulate_mmm(machine, dist, nb, {}, nullptr,
                                      straggler_options(Rebalance::kOff));
  EXPECT_EQ(stat.migrations, 0u);

  const RuntimeOptions opts = straggler_options(Rebalance::kPanel);
  RunObservation obs(opts.estimator);
  RunObservation* prev = install_observation(&obs);
  const SimReport reb = simulate_mmm(machine, dist, nb, {}, nullptr, opts);
  install_observation(prev);

  // One decisive migration at the first boundary, moving 120 owner changes
  // x 3 matrices (A, B, C).
  EXPECT_EQ(reb.resolves, nb - 1);
  EXPECT_EQ(reb.migrations, 1u);
  ASSERT_EQ(reb.events.size(), 1u);
  EXPECT_EQ(reb.events[0].step, 1u);
  EXPECT_EQ(reb.blocks_moved, 360u);
  EXPECT_EQ(obs.rebalances.size(), 1u);

  // >= 25% faster than the static plan (actual: ~57%).
  EXPECT_LT(reb.total_time, 0.75 * stat.total_time);

  // Within 15% of the balanced lower bound under post-drift rates.
  const std::vector<double> finish(reb.busy.size(), reb.total_time);
  const ImbalanceReport rep =
      build_imbalance_report(obs, reb.busy, finish);
  ASSERT_GT(rep.lower_bound, 0.0);
  EXPECT_LE(reb.total_time, 1.15 * rep.lower_bound);
  ASSERT_EQ(rep.rebalances.size(), 1u);
  EXPECT_EQ(rep.rebalances[0].blocks_moved, 360u);
}

TEST(DynamicSim, FactorizationsRebalanceUnderStraggler) {
  // The shrinking-region variants: LU, QR, and Cholesky under the same 4x
  // grid-row-0 straggler. Each must migrate at least once and finish no
  // later than the static plan.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t nb = 24;

  using Fn = SimReport (*)(const Machine&, const Distribution2D&, std::size_t,
                           const KernelCosts&, TraceSink*,
                           const RuntimeOptions&);
  const Fn kernels[] = {&simulate_lu, &simulate_qr, &simulate_cholesky};
  for (Fn fn : kernels) {
    const SimReport stat = fn(machine, dist, nb, {}, nullptr,
                              straggler_options(Rebalance::kOff));
    const SimReport reb = fn(machine, dist, nb, {}, nullptr,
                             straggler_options(Rebalance::kPanel));
    SCOPED_TRACE(stat.kernel);
    EXPECT_GE(reb.migrations, 1u);
    EXPECT_LT(reb.total_time, stat.total_time);
  }
}

// ----------------------------------------------------- MP runtime

// One MP kernel run on fresh deterministic inputs (MMM: random A and B,
// LU: diagonally dominant, Cholesky: SPD, QR: random square), returning
// the report and the result.
struct KernelRun {
  MpReport rep;
  Matrix out;
};

KernelRun run_kernel(const std::string& kernel, const Machine& machine,
                     const Distribution2D& dist, std::size_t n,
                     std::size_t block, const RuntimeOptions& opts) {
  Rng rng(7);
  KernelRun run{MpReport{}, Matrix(n, n)};
  if (kernel == "mmm") {
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    run.rep = run_mp_mmm(machine, dist, a.view(), b.view(), run.out.view(),
                         block, {}, nullptr, opts);
  } else if (kernel == "lu") {
    fill_diagonally_dominant(run.out.view(), rng);
    run.rep = run_mp_lu(machine, dist, run.out.view(), block, {}, false,
                        nullptr, opts);
  } else if (kernel == "chol") {
    fill_spd(run.out.view(), rng);
    run.rep =
        run_mp_cholesky(machine, dist, run.out.view(), block, {}, nullptr,
                        opts);
  } else {
    fill_random(run.out.view(), rng);
    run.rep =
        run_mp_qr(machine, dist, run.out.view(), block, {}, nullptr, opts);
  }
  return run;
}

const char* const kKernels[] = {"mmm", "lu", "chol", "qr"};

TEST(MpRebalance, OffIsBitIdenticalAcrossThreads) {
  // With the rebalancer off, a drift trace only reshapes virtual time: for
  // every kernel the result must stay bit-identical to the trace-free run,
  // and the makespan must agree across thread counts.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t n = 32, block = 4;
  for (const char* kernel : kKernels) {
    SCOPED_TRACE(kernel);
    const KernelRun plain =
        run_kernel(kernel, machine, dist, n, block, RuntimeOptions{});
    double makespan = -1.0;
    for (unsigned threads : {1u, 2u, 7u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      RuntimeOptions opts = straggler_options(Rebalance::kOff);
      opts.threads = threads;
      const KernelRun run = run_kernel(kernel, machine, dist, n, block, opts);
      EXPECT_TRUE(same_bits(plain.out.view(), run.out.view()));
      EXPECT_EQ(run.rep.rebalances, 0u);
      EXPECT_EQ(run.rep.rebalance_blocks, 0u);
      if (makespan < 0.0) makespan = run.rep.makespan;
      EXPECT_EQ(run.rep.makespan, makespan);
    }
  }
}

TEST(MpRebalance, StragglerMakespanDropsAndResultIsUnchanged) {
  // The MP half of the acceptance scenario: real numerics, virtual time.
  // nb = 20 block steps of 2x2 blocks; grid row 0 slows 4x at step 0.
  // Rebalancing must cut the makespan >= 25%, land within 15% of the
  // imbalance report's balanced lower bound, and not move a single bit of
  // the product (MMM migration is pure data movement).
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t n = 40, block = 2;
  Rng rng(223);
  Matrix a(n, n), b(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);

  Matrix c_static(n, n);
  const MpReport stat =
      run_mp_mmm(machine, dist, a.view(), b.view(), c_static.view(), block,
                 {}, nullptr, straggler_options(Rebalance::kOff));

  const RuntimeOptions opts = straggler_options(Rebalance::kPanel);
  RunObservation obs(opts.estimator);
  RunObservation* prev = install_observation(&obs);
  Matrix c_reb(n, n);
  const MpReport reb = run_mp_mmm(machine, dist, a.view(), b.view(),
                                  c_reb.view(), block, {}, nullptr, opts);
  install_observation(prev);

  EXPECT_TRUE(same_bits(c_static.view(), c_reb.view()));
  EXPECT_GE(reb.rebalances, 1u);
  EXPECT_GE(reb.rebalance_blocks, 1u);
  EXPECT_LT(reb.makespan, 0.75 * stat.makespan);

  const ImbalanceReport rep = build_imbalance_report(obs, reb.busy, reb.clock);
  ASSERT_GT(rep.lower_bound, 0.0);
  EXPECT_LE(reb.makespan, 1.15 * rep.lower_bound);
  EXPECT_EQ(rep.rebalances.size(), reb.rebalances);

  // Sanity on the numerics: the product matches the sequential gemm.
  Matrix ref(n, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, ref.view());
  EXPECT_LE(max_abs_diff(ref.view(), c_reb.view()), 1e-10);
}

TEST(MpRebalance, MigrationScheduleIsThreadInvariant) {
  // Migration decisions are pure functions of the boundary snapshot, so
  // the applied schedule — and every downstream bit, and the host's
  // block-pool and step-window counters — must be identical across thread
  // counts. Every kernel acts at least once here. Migration only relocates
  // blocks, so MMM, LU and Cholesky must also reproduce the static run's
  // bits; QR regroups its W reduction by the new grid rows and is held to
  // 1e-8 instead. MMM, whose whole matrix rebalances, must also beat the
  // static makespan.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t n = 32, block = 4;
  for (const std::string kernel : kKernels) {
    SCOPED_TRACE(kernel);
    const KernelRun stat = run_kernel(kernel, machine, dist, n, block,
                                      straggler_options(Rebalance::kOff));
    KernelRun first;
    HostCounters first_counters;
    for (unsigned threads : {1u, 2u, 7u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      RuntimeOptions opts = straggler_options(Rebalance::kPanel);
      opts.threads = threads;
      KernelRun run;
      const HostCounters counters = count_host_work(
          [&] { run = run_kernel(kernel, machine, dist, n, block, opts); });
      if (threads == 1) {
        first = std::move(run);
        first_counters = counters;
        continue;
      }
      EXPECT_EQ(counters, first_counters);
      EXPECT_TRUE(same_bits(first.out.view(), run.out.view()));
      EXPECT_EQ(run.rep.rebalances, first.rep.rebalances);
      EXPECT_EQ(run.rep.rebalance_blocks, first.rep.rebalance_blocks);
      EXPECT_EQ(run.rep.makespan, first.rep.makespan);
    }
    EXPECT_GE(first.rep.rebalances, 1u);
    if (kernel == "qr") {
      EXPECT_LE(max_abs_diff(stat.out.view(), first.out.view()), 1e-8);
    } else {
      EXPECT_TRUE(same_bits(stat.out.view(), first.out.view()));
    }
    if (kernel == "mmm") {
      EXPECT_LT(first.rep.makespan, stat.rep.makespan);
    }
  }
}

// ------------------------------------------- migration

TEST(MpRebalance, MigrationAcquiresNoBuffer) {
  // A migration hands the block's binding to its new owner, so every
  // persistent block stays in the caller's matrix and a run acquires
  // buffers only for the transient copies its rings land. On a 2x2 grid
  // each ring reaches the one other processor of its line whoever owns
  // the block, so a run that migrates must acquire exactly as many
  // buffers as the static run. QR is left out: its gathered panel's feeder
  // copies depend on who owns each panel block.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t n = 32, block = 4;
  const auto acquires = [&](const std::string& kernel, unsigned threads,
                            Rebalance rebalance, KernelRun& run) {
    RuntimeOptions opts = straggler_options(rebalance);
    opts.threads = threads;
    const HostCounters c = count_host_work(
        [&] { run = run_kernel(kernel, machine, dist, n, block, opts); });
    return c.at("block_store.pool_hits") + c.at("block_store.pool_misses");
  };
  for (const std::string kernel : {"mmm", "lu", "chol"}) {
    for (unsigned threads : {1u, 7u}) {
      SCOPED_TRACE(testing::Message() << kernel << " threads=" << threads);
      KernelRun stat, moved;
      const std::uint64_t stat_acquires =
          acquires(kernel, threads, Rebalance::kOff, stat);
      const std::uint64_t moved_acquires =
          acquires(kernel, threads, Rebalance::kPanel, moved);
      EXPECT_EQ(stat.rep.rebalance_blocks, 0u);
      EXPECT_GE(moved.rep.rebalance_blocks, 1u);
      EXPECT_EQ(moved_acquires, stat_acquires);
    }
  }
}

TEST(MpRebalance, RebalancedLuBitIdenticalToStatic) {
  // An LU run that actually migrates mid-factorization, with blocks wider
  // than the gemm kernels' register tile: migration only moves blocks, so
  // the factors must be bit-identical to the static run.
  const Machine machine = uniform_machine(2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t n = 560, block = 80;  // nb = 7
  Rng rng(233);
  Matrix a(n, n);
  fill_diagonally_dominant(a.view(), rng);

  Matrix stat = a;
  run_mp_lu(machine, dist, stat.view(), block);

  Matrix lu = a;
  const MpReport rep = run_mp_lu(machine, dist, lu.view(), block, {}, false,
                                 nullptr, straggler_options(Rebalance::kPanel));
  EXPECT_GE(rep.rebalances, 1u);
  EXPECT_TRUE(same_bits(stat.view(), lu.view()));
}

}  // namespace
}  // namespace hetgrid
