// Tests for the load-imbalance observatory (src/obs/cycle_estimator,
// src/obs/imbalance): EWMA cycle-time estimation and its exact recovery of
// planted t_ij from virtual-time charges, the drift detector's
// fires-exactly-once contract, the imbalance report (lower bound, lanes,
// critical-path attribution through the MP task graph's records), the
// null-sink contract (observing a run changes no computed result), and
// byte-stable JSON across thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/matrix.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/cycle_estimator.hpp"
#include "obs/imbalance.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

// ----------------------------------------------------- estimator units

TEST(CycleEstimator, ConstantRateIsRecoveredExactly) {
  CycleTimeEstimator est;
  // Virtual-time charges: seconds = t_ij * units, so every sample's rate
  // is exactly the planted cycle-time and the EWMA of a constant is that
  // constant — bit for bit.
  for (std::size_t k = 0; k < 5; ++k)
    est.sample(2, ObsOp::kUpdate, 3.0 + static_cast<double>(k),
               0.25 * (3.0 + static_cast<double>(k)), k);
  const std::vector<CycleEstimate> rows = est.estimates();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].proc, 2u);
  EXPECT_EQ(rows[0].op, ObsOp::kUpdate);
  EXPECT_EQ(rows[0].seconds_per_unit, 0.25);
  EXPECT_EQ(rows[0].samples, 5u);
  EXPECT_EQ(rows[0].units, 3.0 + 4.0 + 5.0 + 6.0 + 7.0);
}

TEST(CycleEstimator, EwmaWeightsNewestSampleByAlpha) {
  CycleTimeEstimator::Options opt;
  opt.alpha = 0.25;
  CycleTimeEstimator est(opt);
  est.sample(0, ObsOp::kPanel, 1.0, 1.0, 0);  // first sample seeds the EWMA
  est.sample(0, ObsOp::kPanel, 1.0, 2.0, 1);
  EXPECT_EQ(est.estimates()[0].seconds_per_unit, 0.25 * 2.0 + 0.75 * 1.0);
}

TEST(CycleEstimator, NonPositiveSamplesAreIgnored) {
  CycleTimeEstimator est;
  est.sample(0, ObsOp::kUpdate, 0.0, 1.0, 0);
  est.sample(0, ObsOp::kUpdate, 1.0, 0.0, 0);
  est.sample(0, ObsOp::kUpdate, -1.0, 1.0, 0);
  EXPECT_TRUE(est.estimates().empty());
}

TEST(CycleEstimator, LanesAreKeyedByProcessorAndOpClass) {
  CycleTimeEstimator est;
  est.sample(1, ObsOp::kPanel, 1.0, 2.0, 0);
  est.sample(1, ObsOp::kUpdate, 1.0, 3.0, 0);
  est.sample(0, ObsOp::kUpdate, 1.0, 1.0, 0);
  const std::vector<CycleEstimate> rows = est.estimates();
  ASSERT_EQ(rows.size(), 3u);
  // Deterministic (proc, op) ascending order.
  EXPECT_EQ(rows[0].proc, 0u);
  EXPECT_EQ(rows[1].proc, 1u);
  EXPECT_EQ(rows[1].op, ObsOp::kPanel);
  EXPECT_EQ(rows[2].op, ObsOp::kUpdate);
  EXPECT_EQ(rows[2].seconds_per_unit, 3.0);
}

TEST(CycleEstimator, DriftFiresExactlyOnceForAPlantedTwoXSlowdown) {
  // A lane running at rate 1.0 arms its baseline, then the processor
  // slows to 2x. The EWMA walks toward 2.0, crosses the 50% band exactly
  // once, re-arms at the crossing value, and converges inside the
  // re-armed band — one typed event, deterministic, no wall clock.
  CycleTimeEstimator est;  // alpha 0.25, band 0.5, min_samples 2
  for (std::size_t k = 0; k < 4; ++k) est.sample(0, ObsOp::kUpdate, 1.0, 1.0, k);
  ASSERT_TRUE(est.drift_events().empty());
  for (std::size_t k = 4; k < 40; ++k) est.sample(0, ObsOp::kUpdate, 1.0, 2.0, k);
  const std::vector<DriftEvent> events = est.drift_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proc, 0u);
  EXPECT_EQ(events[0].op, ObsOp::kUpdate);
  EXPECT_EQ(events[0].before, 1.0);       // the armed baseline
  EXPECT_GT(events[0].after, 1.5);        // the EWMA at the crossing
  EXPECT_GE(events[0].step, 4u);          // fired after the slowdown began
  // The estimate itself converged to the new rate.
  EXPECT_NEAR(est.estimates()[0].seconds_per_unit, 2.0, 1e-3);
}

TEST(CycleEstimator, SecondShiftPastTheReArmedBandFiresASecondEvent) {
  // After the 2x slowdown the lane re-armed near 1.58 (the EWMA at the
  // crossing), so its band is roughly [0.79, 2.37]: a recovery to 1.0
  // stays inside it (no event), but a later speed-up to 0.7 s/unit exits
  // below and fires exactly one more.
  CycleTimeEstimator est;
  for (std::size_t k = 0; k < 4; ++k) est.sample(0, ObsOp::kUpdate, 1.0, 1.0, k);
  for (std::size_t k = 4; k < 40; ++k) est.sample(0, ObsOp::kUpdate, 1.0, 2.0, k);
  ASSERT_EQ(est.drift_events().size(), 1u);
  for (std::size_t k = 40; k < 60; ++k) est.sample(0, ObsOp::kUpdate, 1.0, 1.0, k);
  EXPECT_EQ(est.drift_events().size(), 1u);  // inside the re-armed band
  for (std::size_t k = 60; k < 100; ++k)
    est.sample(0, ObsOp::kUpdate, 1.0, 0.7, k);
  const std::vector<DriftEvent> events = est.drift_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[1].after, events[1].before);  // a speed-up, not a slowdown
}

TEST(Observation, InstallReturnsPrevious) {
  RunObservation a, b;
  RunObservation* prev = install_observation(&a);
  EXPECT_EQ(installed_observation(), &a);
  EXPECT_EQ(install_observation(&b), &a);
  EXPECT_EQ(install_observation(prev), &b);
}

// ----------------------------------------------------- simulator recovery

Machine planted_machine(std::size_t p, std::size_t q,
                        std::vector<double> pool) {
  return Machine{CycleTimeGrid(p, q, std::move(pool)),
                 NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4, true}};
}

// The acceptance case: on a simulator run over planted heterogeneous
// cycle-times, the virtual charges are seconds = t_ij * units, so the
// estimator must recover every per-(processor, op-class) t_ij exactly.
TEST(SimObservation, EstimatorRecoversPlantedRatesAfterOnePanelSweep) {
  const std::size_t p = 2, q = 2, nb = 6;
  const Machine machine = planted_machine(p, q, {1.0, 1.5, 2.0, 3.0});
  const PanelDistribution dist = PanelDistribution::block_cyclic(p, q);
  const KernelCosts costs;

  RunObservation obs;
  RunObservation* prev = install_observation(&obs);
  const SimReport rep = simulate_lu(machine, dist, nb, costs, nullptr);
  install_observation(prev);
  ASSERT_GT(rep.total_time, 0.0);

  const ImbalanceReport report = build_imbalance_report(
      obs, rep.busy, std::vector<double>(p * q, rep.total_time),
      &machine.grid, q);
  ASSERT_FALSE(report.estimates.empty());
  for (const EstimateRow& e : report.estimates) {
    ASSERT_TRUE(e.has_true);
    EXPECT_EQ(e.estimate, e.true_t) << "proc " << e.proc;  // exact, not just 5%
    EXPECT_EQ(e.rel_err, 0.0);
  }
  // Every processor contributed at least one lane (block-cyclic: all own
  // panel rows and trailing blocks at some step).
  std::vector<bool> seen(p * q, false);
  for (const EstimateRow& e : report.estimates) seen[e.proc] = true;
  for (std::size_t id = 0; id < p * q; ++id) EXPECT_TRUE(seen[id]);

  // With exact rates the paper's bound is a true lower bound.
  EXPECT_GT(report.lower_bound, 0.0);
  EXPECT_LE(report.lower_bound, report.makespan * (1.0 + 1e-12));
}

TEST(SimObservation, MidRunSlowdownFiresDriftOncePerAffectedLane) {
  // A planted mid-run 2x slowdown: the same observation spans two MMM
  // sweeps, the second on a grid whose processor 3 runs 2x slower. Only
  // that processor's update lane drifts, exactly once.
  const std::size_t p = 2, q = 2, nb = 8;
  const PanelDistribution dist = PanelDistribution::block_cyclic(p, q);
  const KernelCosts costs;
  const Machine before = planted_machine(p, q, {1.0, 1.0, 1.0, 1.0});
  const Machine after = planted_machine(p, q, {1.0, 1.0, 1.0, 2.0});

  RunObservation obs;
  RunObservation* prev = install_observation(&obs);
  simulate_mmm(before, dist, nb, costs, nullptr);
  simulate_mmm(after, dist, nb, costs, nullptr);
  install_observation(prev);

  const std::vector<DriftEvent> events = obs.estimator.drift_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proc, 3u);
  EXPECT_EQ(events[0].op, ObsOp::kUpdate);
  EXPECT_EQ(events[0].before, 1.0);
  EXPECT_GT(events[0].after, 1.5);
}

// ----------------------------------------------------- report assembly

TEST(ImbalanceReport, LowerBoundIsThePerfectlyBalancedMakespan) {
  // Two processors at rates 1 and 2 s/unit with 10 units each: aggregate
  // speed 1 + 1/2 = 1.5 units/s, 20 units total -> bound 40/3.
  RunObservation obs;
  for (std::size_t k = 0; k < 2; ++k) {
    obs.estimator.sample(0, ObsOp::kUpdate, 5.0, 5.0, k);
    obs.estimator.sample(1, ObsOp::kUpdate, 5.0, 10.0, k);
  }
  const ImbalanceReport rep =
      build_imbalance_report(obs, {10.0, 20.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(rep.lower_bound, 20.0 / 1.5);
  EXPECT_DOUBLE_EQ(rep.makespan, 20.0);
  ASSERT_EQ(rep.lanes.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.lanes[0].idle, 10.0);
  EXPECT_DOUBLE_EQ(rep.lanes[0].slack, 10.0);
  EXPECT_DOUBLE_EQ(rep.lanes[1].idle, 0.0);
  EXPECT_DOUBLE_EQ(rep.lanes[1].slack, 0.0);
  // No task records -> no critical path, and the report says so.
  EXPECT_EQ(rep.critical_path_tasks, 0u);
  EXPECT_TRUE(rep.critical.empty());
}

// ----------------------------------------------------- mp dag attribution

bool same_bits(const ConstMatrixView& a, const ConstMatrixView& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  return true;
}

struct MpRun {
  MpReport rep;
  Matrix out;
  std::vector<TraceEvent> events;
};

MpRun run_kernel(const std::string& kernel, const Machine& machine,
                 const Distribution2D& dist, std::size_t nb, std::size_t block,
                 const RuntimeOptions& opts) {
  const std::size_t n = nb * block;
  const KernelCosts costs;
  Rng rng(11);
  MpRun run;
  MemoryTraceSink sink;
  if (kernel == "mmm") {
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    run.out = Matrix(n, n);
    run.rep = run_mp_mmm(machine, dist, a.view(), b.view(), run.out.view(),
                         block, costs, &sink, opts);
  } else if (kernel == "lu") {
    run.out = Matrix(n, n);
    fill_diagonally_dominant(run.out.view(), rng);
    run.rep =
        run_mp_lu(machine, dist, run.out.view(), block, costs, false, &sink,
                  opts);
  } else if (kernel == "chol") {
    run.out = Matrix(n, n);
    fill_spd(run.out.view(), rng);
    run.rep = run_mp_cholesky(machine, dist, run.out.view(), block, costs,
                              &sink, opts);
  } else {
    run.out = Matrix(n, n);
    fill_random(run.out.view(), rng);
    run.rep =
        run_mp_qr(machine, dist, run.out.view(), block, costs, &sink, opts);
  }
  run.events = sink.events();
  return run;
}

void expect_same_run(const MpRun& a, const MpRun& b) {
  EXPECT_EQ(a.rep.makespan, b.rep.makespan);
  EXPECT_EQ(a.rep.clock, b.rep.clock);
  EXPECT_EQ(a.rep.busy, b.rep.busy);
  EXPECT_EQ(a.rep.messages, b.rep.messages);
  EXPECT_EQ(a.rep.blocks_moved, b.rep.blocks_moved);
  EXPECT_TRUE(same_bits(a.out.view(), b.out.view()));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].proc, b.events[i].proc) << "event " << i;
    EXPECT_EQ(a.events[i].start, b.events[i].start) << "event " << i;
    EXPECT_EQ(a.events[i].duration, b.events[i].duration) << "event " << i;
  }
}

// Observation is a pure tap: for every kernel the observed run is
// bit-identical to the plain one (report, matrices, trace stream), the
// estimator recovers the planted t_ij exactly, and the critical path is
// attributed to (processor, op) segments.
TEST(MpObservation, AllKernelsBitIdenticalWithCriticalPathAttribution) {
  const std::size_t p = 2, q = 2, nb = 4, block = 4;
  const Machine machine = planted_machine(p, q, {1.0, 1.0, 1.0, 2.0});
  const PanelDistribution dist = PanelDistribution::block_cyclic(p, q);
  RuntimeOptions opts;
  opts.threads = 2;

  for (const char* kernel : {"mmm", "lu", "chol", "qr"}) {
    SCOPED_TRACE(kernel);
    const MpRun plain = run_kernel(kernel, machine, dist, nb, block, opts);
    RunObservation obs;
    RunObservation* prev = install_observation(&obs);
    const MpRun watched = run_kernel(kernel, machine, dist, nb, block, opts);
    install_observation(prev);

    expect_same_run(watched, plain);

    const ImbalanceReport report = build_imbalance_report(
        obs, watched.rep.busy, watched.rep.clock, &machine.grid, q);
    ASSERT_FALSE(report.estimates.empty());
    for (const EstimateRow& e : report.estimates) {
      ASSERT_TRUE(e.has_true);
      EXPECT_LE(e.rel_err, 0.05);
    }
    EXPECT_GT(report.critical_path_tasks, 0u);
    EXPECT_GT(report.critical_path_cost, 0.0);
    ASSERT_FALSE(report.critical.empty());
    // Segments are weight-descending and cover the whole chain.
    std::size_t chain_tasks = 0;
    for (std::size_t i = 0; i < report.critical.size(); ++i) {
      chain_tasks += report.critical[i].tasks;
      if (i > 0) {
        EXPECT_GE(report.critical[i - 1].weight, report.critical[i].weight);
      }
    }
    EXPECT_EQ(chain_tasks, report.critical_path_tasks);
    // The critical chain can never cost more than the achieved makespan
    // (weights are the same virtual seconds the clocks accumulated).
    EXPECT_LE(report.critical_path_cost,
              report.makespan * (1.0 + 1e-12));
  }
}

TEST(MpObservation, JsonReportIsByteStableAcrossThreadCounts) {
  const std::size_t p = 2, q = 2, nb = 4, block = 4;
  const Machine machine = planted_machine(p, q, {1.0, 1.5, 2.0, 3.0});
  const PanelDistribution dist = PanelDistribution::block_cyclic(p, q);

  for (const char* kernel : {"lu", "qr"}) {
    SCOPED_TRACE(kernel);
    std::string first;
    for (const unsigned threads : {1u, 2u, 7u}) {
      RuntimeOptions opts;
      opts.threads = threads;
      RunObservation obs;
      RunObservation* prev = install_observation(&obs);
      const MpRun run = run_kernel(kernel, machine, dist, nb, block, opts);
      install_observation(prev);
      std::ostringstream os;
      write_imbalance_json(os, build_imbalance_report(
                                   obs, run.rep.busy, run.rep.clock,
                                   &machine.grid, q));
      if (first.empty())
        first = os.str();
      else
        EXPECT_EQ(os.str(), first) << "threads " << threads;
    }
    EXPECT_NE(first.find("\"critical_path\""), std::string::npos);
    EXPECT_NE(first.find("\"estimates\""), std::string::npos);
  }
}

}  // namespace
}  // namespace hetgrid
