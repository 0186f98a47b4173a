// Tests for the dependency-driven task-graph scheduler: the scoreboard
// dependency rules (RAW / WAR / WAW), deterministic execution across
// thread counts, and the bit-identity of all four MP kernels at threads
// {1, 2, 7} against the graph's serial inline mode — including LU with the
// lookahead virtual-time model, pivoted LU, MMM with a NaN-filled C, and
// the LU and Cholesky failure returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/matrix.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/task_graph.hpp"

namespace hetgrid {
namespace {

// ----------------------------------------------------- graph unit tests

TEST(TaskGraph, SerialRunsInlineInSubmissionOrder) {
  TaskGraph g(1);
  std::vector<int> order;
  g.add("a", {}, {1}, [&] { order.push_back(0); });
  g.add("b", {1}, {2}, [&] { order.push_back(1); });
  g.add("c", {2}, {}, [&] { order.push_back(2); });
  g.wait_all();
  EXPECT_TRUE(g.serial());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.stats().tasks, 3u);
  EXPECT_EQ(g.stats().edges, 2u);        // a->b (RAW), b->c (RAW)
  EXPECT_EQ(g.stats().critical_path, 3u);
}

TEST(TaskGraph, WarAndWawEdgesSerializeWriters) {
  // reader of key 1, then a writer of key 1: the writer must wait (WAR).
  // A second writer then chains on the first (WAW).
  TaskGraph g(1);
  g.add("w0", {}, {1}, [] {});
  const auto r = g.add("r", {1}, {}, [] {});
  const auto w1 = g.add("w1", {}, {1}, [] {});
  const auto w2 = g.add("w2", {}, {1}, [] {});
  g.wait_all();
  EXPECT_TRUE(g.done(r) && g.done(w1) && g.done(w2));
  // Edges: w0->r (RAW), w0->w1 (WAW) + r->w1 (WAR), w1->w2 (WAW).
  EXPECT_EQ(g.stats().edges, 4u);
  EXPECT_EQ(g.stats().critical_path, 4u);  // w0 -> r -> w1 -> w2
}

TEST(TaskGraph, ReductionOrderBitIdenticalAcrossThreads) {
  // Sum floating-point values in a canonical order through a WAW chain on
  // one accumulator key. Any reordering would change the rounding; bitwise
  // equality across thread counts proves the chain serializes.
  const auto reduce = [](unsigned threads) {
    Rng rng(97);
    std::vector<double> vals(64);
    for (double& v : vals) v = rng.uniform() - 0.5;
    double acc = 0.0;
    TaskGraph g(threads);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const double v = vals[i];
      g.add("acc", {}, {7}, [&acc, v] { acc += v; });
    }
    g.wait_all();
    return acc;
  };
  const double serial = reduce(1);
  for (unsigned t : {2u, 7u}) {
    const double par = reduce(t);
    EXPECT_EQ(std::memcmp(&serial, &par, sizeof(double)), 0)
        << "threads=" << t;
  }
}

TEST(TaskGraph, IndependentTasksRunConcurrently) {
  // Two tasks with disjoint keys must be in flight simultaneously at some
  // point with 2 workers: each waits for the other to have started.
  TaskGraph g(2);
  std::atomic<int> started{0};
  for (int i = 0; i < 2; ++i)
    g.add("spin", {}, {static_cast<TaskGraph::Key>(i)}, [&started] {
      started.fetch_add(1);
      while (started.load() < 2) {
      }
    });
  g.wait_all();
  EXPECT_EQ(started.load(), 2);
}

TEST(TaskGraph, ReadyTasksStartByPriorityThenId) {
  // The ready queue's contract: higher priority first, then lower id. One
  // worker is pinned by the blocker, so the tasks the gate releases
  // together start one at a time, in the queue's order.
  TaskGraph g(2);
  std::atomic<int> spinning{0};
  std::atomic<bool> release_blocker{false}, open_gate{false};
  g.add("blocker", {}, {100}, [&] {
    spinning.fetch_add(1);
    while (!release_blocker.load()) {
    }
  });
  g.add("gate", {}, {1}, [&] {
    spinning.fetch_add(1);
    while (!open_gate.load()) {
    }
  });
  std::mutex mu;
  std::vector<std::string> order;
  std::atomic<int> ran{0};
  const auto add_reader = [&](const char* name, int priority) {
    g.add(
        name, {1}, {},
        [&, name] {
          {
            std::lock_guard<std::mutex> lock(mu);
            order.emplace_back(name);
          }
          ran.fetch_add(1);
        },
        priority);
  };
  add_reader("x1", 0);
  add_reader("y", 2);
  add_reader("x2", 0);
  add_reader("z", 1);
  while (spinning.load() < 2) {
  }
  open_gate.store(true);
  while (ran.load() < 4) {
  }
  release_blocker.store(true);
  g.wait_all();
  EXPECT_EQ(order, (std::vector<std::string>{"y", "z", "x1", "x2"}));
}

TEST(TaskGraph, PendingOnTracksUnfinishedTasks) {
  TaskGraph g(2);
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  g.add("w", {}, {5}, [&] {
    while (!release.load()) {
    }
    ran.store(true);
  });
  EXPECT_EQ(g.pending_on(5).size(), 1u);
  EXPECT_TRUE(g.pending_on(6).empty());
  release.store(true);
  g.wait_all();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(g.pending_on(5).empty());
}

TEST(TaskGraph, HostAcquireWaitsForWritersAndReaders) {
  TaskGraph g(2);
  std::atomic<bool> release{false};
  int value = 0;
  g.add("w", {}, {9}, [&] {
    while (!release.load()) {
    }
    value = 42;
  });
  release.store(true);
  g.host_acquire({}, {9});  // write ownership: waits for the writer
  EXPECT_EQ(value, 42);
  // After host_acquire the host owns the key: a new reader needs no edge.
  const std::size_t edges = g.stats().edges;
  g.add("r", {9}, {}, [] {});
  g.wait_all();
  EXPECT_EQ(g.stats().edges, edges);
}

TEST(TaskGraph, StatsDeterministicAcrossThreadCounts) {
  const auto build = [](unsigned threads) {
    TaskGraph g(threads);
    for (int i = 0; i < 8; ++i)
      g.add("w", {}, {static_cast<TaskGraph::Key>(i % 3)}, [] {});
    g.wait_all();
    return g.stats();
  };
  const TaskGraph::Stats serial = build(1);
  for (unsigned t : {2u, 7u}) {
    const TaskGraph::Stats par = build(t);
    EXPECT_EQ(serial.tasks, par.tasks);
    EXPECT_EQ(serial.edges, par.edges);
    EXPECT_EQ(serial.critical_path, par.critical_path);
  }
}

// ----------------------------------------------------- MP kernels x threads

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

void expect_same_events(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].proc, b[i].proc) << "event " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "event " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "event " << i;
    EXPECT_EQ(a[i].step, b[i].step) << "event " << i;
    EXPECT_EQ(a[i].blocks, b[i].blocks) << "event " << i;
    EXPECT_EQ(a[i].peer, b[i].peer) << "event " << i;
    EXPECT_EQ(a[i].name, b[i].name) << "event " << i;
  }
}

void expect_same_report(const MpReport& a, const MpReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.blocks_moved, b.blocks_moved);
  EXPECT_EQ(a.factorized, b.factorized);
}

Machine het_machine(std::uint64_t seed, std::size_t p, std::size_t q) {
  Rng rng(seed);
  return Machine{CycleTimeGrid::sorted_row_major(p, q,
                                                 rng.cycle_times(p * q, 0.2)),
                 NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4, true}};
}

constexpr unsigned kThreadCounts[] = {1, 2, 7};

struct MpRun {
  MpReport report;
  Matrix out;
  std::vector<double> tau;         // QR only
  std::vector<std::size_t> piv;    // pivoted LU only
  std::vector<TraceEvent> events;
};

RuntimeOptions make_opts(unsigned threads) {
  RuntimeOptions opts;
  opts.threads = threads;
  return opts;
}

MpRun run_mmm(const Machine& machine, const Distribution2D& dist,
              unsigned threads, double c_init = 0.0) {
  Rng rng(11);
  Matrix a(28, 28), b(28, 28), c(28, 28, c_init);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  MemoryTraceSink sink;
  MpRun run;
  run.report = run_mp_mmm(machine, dist, a.view(), b.view(), c.view(), 6,
                          {}, &sink, make_opts(threads));
  run.out = std::move(c);
  run.events = sink.events();
  return run;
}

Matrix lu_input() {
  Rng rng(13);
  Matrix a(28, 28);
  fill_diagonally_dominant(a.view(), rng);
  return a;
}

MpRun run_lu(const Machine& machine, const Distribution2D& dist,
             bool lookahead, unsigned threads, Matrix a = lu_input()) {
  MemoryTraceSink sink;
  MpRun run;
  run.report = run_mp_lu(machine, dist, a.view(), 6, {}, lookahead, &sink,
                         make_opts(threads));
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

MpRun run_lu_pivoted(const Machine& machine, const Distribution2D& dist,
                     unsigned threads) {
  Rng rng(13);
  Matrix a(28, 28);
  fill_random(a.view(), rng);  // general: pivots cross grid rows
  MemoryTraceSink sink;
  MpRun run;
  const MpLuReport rep = run_mp_lu_pivoted(machine, dist, a.view(), 6, {},
                                           &sink, make_opts(threads));
  run.report = rep;
  run.piv = rep.piv;
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

Matrix chol_input() {
  Rng rng(17);
  Matrix a(28, 28);
  fill_spd(a.view(), rng);
  return a;
}

MpRun run_chol(const Machine& machine, const Distribution2D& dist,
               unsigned threads, Matrix a = chol_input()) {
  MemoryTraceSink sink;
  MpRun run;
  run.report = run_mp_cholesky(machine, dist, a.view(), 6, {}, &sink,
                               make_opts(threads));
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

MpRun run_qr(const Machine& machine, const Distribution2D& dist,
             unsigned threads, std::size_t rows = 32, std::size_t cols = 20,
             std::size_t block = 5) {
  Rng rng(19);
  Matrix a(rows, cols);
  fill_random(a.view(), rng);
  MemoryTraceSink sink;
  MpRun run;
  const MpQrReport rep = run_mp_qr(machine, dist, a.view(), block, {}, &sink,
                                   make_opts(threads));
  run.report = rep;
  run.tau = rep.tau;
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

void expect_same_run(const MpRun& ref, const MpRun& got) {
  expect_same_report(ref.report, got.report);
  EXPECT_EQ(ref.tau, got.tau);
  EXPECT_EQ(ref.piv, got.piv);
  EXPECT_TRUE(same_bits(ref.out.view(), got.out.view()));
  expect_same_events(ref.events, got.events);
}

// Every thread count must reproduce the serial inline run (TaskGraph(1),
// the determinism reference) bit for bit: reports, traces, and matrices.

TEST(MpDag, MmmBitIdenticalAcrossThreads) {
  const Machine machine = het_machine(23, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  const MpRun serial = run_mmm(machine, dist, 1);
  for (unsigned t : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << t);
    expect_same_run(serial, run_mmm(machine, dist, t));
    // C's blocks start at zero on their owners: the caller's C, here all
    // NaN, is never read, so it cannot leak into the product.
    expect_same_run(serial, run_mmm(machine, dist, t, std::nan("")));
  }
}

// Steps that traced anything: the failure inputs below stop at step 3's
// panel, after steps 0-2 ran in full.
std::size_t last_step(const std::vector<TraceEvent>& events) {
  std::size_t k = 0;
  for (const TraceEvent& e : events) k = std::max(k, e.step);
  return k;
}

TEST(MpDag, LuBitIdenticalAcrossThreads) {
  const Machine machine = het_machine(31, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  const MpRun serial = run_lu(machine, dist, false, 1);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_lu(machine, dist, false, t));

  // A zero pivot returns early, gathering while earlier steps' updates may
  // still be in flight. Row 18, the first of block step 3, repeats row 0
  // through column 18: the leading 19 x 19 minor is singular, and
  // elimination leaves an exact zero pivot at (18, 18).
  Matrix singular = lu_input();
  for (std::size_t j = 0; j <= 18; ++j) singular(18, j) = singular(0, j);
  const MpRun failed = run_lu(machine, dist, false, 1, singular);
  EXPECT_FALSE(failed.report.factorized);
  EXPECT_EQ(last_step(failed.events), 2u);
  for (unsigned t : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "zero pivot, threads=" << t);
    expect_same_run(failed, run_lu(machine, dist, false, t, singular));
  }
}

TEST(MpDag, LuLookaheadBitIdenticalAcrossThreads) {
  // The graph runs the lookahead overlap for real whatever the flag says;
  // `lookahead` selects only the virtual-time model. So lookahead runs are
  // thread-invariant too, and their factors equal the plain run's.
  const Machine machine = het_machine(31, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  const MpRun serial = run_lu(machine, dist, true, 1);
  EXPECT_TRUE(
      same_bits(serial.out.view(), run_lu(machine, dist, false, 1).out.view()));
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_lu(machine, dist, true, t));
}

TEST(MpDag, LuPivotedBitIdenticalAcrossThreads) {
  // Row interchanges add copy/write chains on trailing and finished
  // blocks alike, and transient copies that the next broadcast may land
  // on again; none of it may depend on worker timing.
  const Machine machine = het_machine(31, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  const MpRun serial = run_lu_pivoted(machine, dist, 1);
  ASSERT_GT(serial.events.size(), 0u);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_lu_pivoted(machine, dist, t));
}

TEST(MpDag, CholeskyBitIdenticalAcrossThreads) {
  const Machine machine = het_machine(37, 3, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(3, 2);
  const MpRun serial = run_chol(machine, dist, 1);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_chol(machine, dist, t));

  // A non-SPD input returns early like LU's zero pivot, here on the 2x3
  // machine: the (18, 18) entry of step 3's Schur complement is negative.
  Matrix indefinite = chol_input();
  indefinite(18, 18) = -1.0;
  const Machine het23 = het_machine(31, 2, 3);
  const PanelDistribution dist23 = PanelDistribution::block_cyclic(2, 3);
  const MpRun failed = run_chol(het23, dist23, 1, indefinite);
  EXPECT_FALSE(failed.report.factorized);
  EXPECT_EQ(last_step(failed.events), 2u);
  for (unsigned t : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "non-SPD, threads=" << t);
    expect_same_run(failed, run_chol(het23, dist23, t, indefinite));
  }
}

TEST(MpDag, QrBitIdenticalAcrossThreads) {
  // The sharp case: QR's W reduction must keep its canonical summation
  // order through the graph's WAW chains, and its W/Y transients exercise
  // the deferred-erase path. The second shape's 36-wide panels (last one
  // ragged) run the recursive panel factorization on the host.
  const Machine machine = het_machine(59, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const MpRun serial = run_qr(machine, dist, 1);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_qr(machine, dist, t));
  const MpRun wide = run_qr(machine, dist, 1, 100, 90, 36);
  for (unsigned t : kThreadCounts)
    expect_same_run(wide, run_qr(machine, dist, t, 100, 90, 36));

  // The heuristic panel layout perfbench runs (contiguous rows,
  // interleaved columns), with recursive 18-wide panels: the grid column
  // owning block column k + 1, whose ops run at panel priority, changes
  // from step to step.
  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
  const PanelDistribution het = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het-qr");
  const Machine het_grid{h.final().grid,
                         NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4,
                                      true}};
  const MpRun panels = run_qr(het_grid, het, 1, 150, 122, 18);
  for (unsigned t : kThreadCounts)
    expect_same_run(panels, run_qr(het_grid, het, t, 150, 122, 18));
}

// ---------------------------------------------------------------------------
// Observation records (set_observe): weighted critical-path chains.

TEST(TaskGraphRecords, OffByDefaultAndFreeOfBookkeeping) {
  TaskGraph g(1);
  g.add("a", {}, {1}, [] {}, 0, 2.0, 7);
  g.add("b", {1}, {}, [] {}, 0, 3.0, 8);
  g.wait_all();
  EXPECT_FALSE(g.observing());
  EXPECT_TRUE(g.records().empty());
}

TEST(TaskGraphRecords, ChainCostTracksTheHeaviestDependencyChain) {
  TaskGraph g(1);
  g.set_observe(true);
  // Diamond: c reads both a's and b's keys; its chain must extend b (the
  // heavier branch), not a.
  g.add("a", {}, {1}, [] {}, 0, 2.0, 0);
  g.add("b", {}, {2}, [] {}, 0, 5.0, 1);
  g.add("c", {1, 2}, {3}, [] {}, 0, 1.0, 0);
  g.wait_all();
  const std::vector<TaskRecord> recs = g.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].chain_pred, -1);  // chain heads
  EXPECT_EQ(recs[1].chain_pred, -1);
  EXPECT_DOUBLE_EQ(recs[0].chain_cost, 2.0);
  EXPECT_DOUBLE_EQ(recs[1].chain_cost, 5.0);
  EXPECT_DOUBLE_EQ(recs[2].chain_cost, 6.0);  // through b
  EXPECT_EQ(recs[2].chain_pred, 1);
  EXPECT_STREQ(recs[2].name, "c");
  EXPECT_EQ(recs[0].tag, 0u);
  EXPECT_EQ(recs[1].tag, 1u);
  EXPECT_FALSE(recs[2].host);
}

TEST(TaskGraphRecords, NoteHostWorkBridgesAHostAcquire) {
  // The MP runtime's panel pattern: a task writes the diagonal block, the
  // host acquires it (erasing the key history), factors the panel inline,
  // notes that work, and later tasks that read the block must chain
  // through the host record back to the original writer.
  TaskGraph g(1);
  g.set_observe(true);
  g.add("update", {}, {42}, [] {}, 0, 3.0, 0);
  g.host_acquire({}, {42});
  g.note_host_work({42}, 2.0, "panel", 9);
  g.add("solve", {42}, {43}, [] {}, 0, 4.0, 1);
  g.wait_all();
  const std::vector<TaskRecord> recs = g.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_TRUE(recs[1].host);
  EXPECT_EQ(recs[1].tag, 9u);
  EXPECT_DOUBLE_EQ(recs[1].chain_cost, 5.0);  // writer (3) + panel (2)
  EXPECT_EQ(recs[1].chain_pred, 0);
  EXPECT_DOUBLE_EQ(recs[2].chain_cost, 9.0);  // ... + solve (4)
  EXPECT_EQ(recs[2].chain_pred, 1);
}

TEST(TaskGraphRecords, ChainsAndStatsAreThreadCountInvariant) {
  // The records (weights, chain costs, predecessors, tags) must not depend
  // on worker timing.
  auto build = [](unsigned threads) {
    TaskGraph g(threads);
    g.set_observe(true);
    for (int i = 0; i < 16; ++i)
      g.add("w", {}, {static_cast<TaskGraph::Key>(i % 4)}, [] {}, 0, 1.0 + i,
            static_cast<std::uint64_t>(i % 3));
    g.wait_all();
    return g.records();
  };
  const std::vector<TaskRecord> serial = build(1);
  ASSERT_EQ(serial.size(), 16u);
  for (unsigned threads : {2u, 5u}) {
    const std::vector<TaskRecord> recs = build(threads);
    ASSERT_EQ(recs.size(), serial.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].weight, serial[i].weight);
      EXPECT_EQ(recs[i].chain_cost, serial[i].chain_cost);
      EXPECT_EQ(recs[i].chain_pred, serial[i].chain_pred);
      EXPECT_EQ(recs[i].tag, serial[i].tag);
    }
  }
}

}  // namespace
}  // namespace hetgrid
