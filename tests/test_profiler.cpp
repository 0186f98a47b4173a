// Tests for the wall-clock observability layer (src/obs/profiler,
// src/obs/metrics): registry semantics, the byte-stable JSON snapshot,
// profiler lane merging, and the two contracts the CLI's --profile mode
// depends on — attaching the instrumentation changes no computed result,
// and a --threads=1 metrics snapshot is identical across repeated runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "core/arrangement.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/lu.hpp"
#include "matrix/matrix.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid {
namespace {

// Bit-exact double comparison: EXPECT_EQ on doubles would also pass for
// -0.0 vs 0.0 and fail to distinguish NaN payloads.
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Installs a registry for the enclosing scope and uninstalls it on exit,
// even when an EXPECT fails out of the test body.
struct ScopedMetrics {
  MetricsRegistry registry;
  ScopedMetrics() { install_metrics(&registry); }
  ~ScopedMetrics() { install_metrics(nullptr); }
};

// ----------------------------------------------------- metrics registry

TEST(Metrics, CountersGaugesAndHistogramsAccumulate) {
  MetricsRegistry m;
  m.counter("c").add();
  m.counter("c").add(4);
  EXPECT_EQ(m.counter("c").value(), 5u);

  m.gauge("g").set(2.0);
  m.gauge("g").set(0.5);
  EXPECT_DOUBLE_EQ(m.gauge("g").last(), 0.5);
  EXPECT_DOUBLE_EQ(m.gauge("g").max(), 2.0);

  Histogram& h = m.histogram("h");
  h.record(1.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
}

TEST(Metrics, QuantilesReportBucketUpperEdges) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(1.0);  // bucket edge 2^0 = 1
  for (int i = 0; i < 50; ++i) h.record(3.0);  // bucket edge 2^2 = 4
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);   // rank clamps to 1
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(Histogram().quantile(0.5), 0.0);  // empty
}

TEST(Metrics, SnapshotJsonBytesAreDeterministic) {
  MetricsRegistry m;
  m.counter("a.count").add(3);
  m.gauge("b.depth").set(2.0);
  m.gauge("b.depth").set(1.5);
  m.histogram("c.lat").record(1.0);
  m.histogram("c.lat").record(3.0);
  const std::string expected =
      "{\"metrics\":[\n"
      "  {\"name\":\"a.count\",\"type\":\"counter\",\"value\":3},\n"
      "  {\"name\":\"b.depth\",\"type\":\"gauge\",\"last\":1.5,\"max\":2},\n"
      "  {\"name\":\"c.lat\",\"type\":\"histogram\",\"count\":2,\"sum\":4,"
      "\"p50\":1,\"p95\":4,\"p99\":4,\"buckets\":"
      "[{\"le\":1,\"count\":1},{\"le\":4,\"count\":1}]}\n"
      "]}\n";
  EXPECT_EQ(m.snapshot_json(), expected);
  EXPECT_EQ(m.snapshot_json(), m.snapshot_json());
}

TEST(Metrics, HelpersAreNoOpsWithNothingInstalled) {
  ASSERT_EQ(installed_metrics(), nullptr);
  metric_count("nobody.listens");
  metric_gauge("nobody.listens", 1.0);
  metric_record("nobody.listens", 1.0);
  SUCCEED();
}

TEST(Metrics, ConcurrentUpdatesThroughTheHelpersAreLossless) {
  ScopedMetrics scoped;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 400; ++i)
      pool.submit([] {
        metric_count("t.count");
        metric_record("t.hist", 2.0);
      });
    pool.wait_idle();
  }
  EXPECT_EQ(scoped.registry.counter("t.count").value(), 400u);
  EXPECT_EQ(scoped.registry.histogram("t.hist").count(), 400u);
  EXPECT_DOUBLE_EQ(scoped.registry.histogram("t.hist").sum(), 800.0);
  // The pool itself reports under a registry too.
  EXPECT_GE(scoped.registry.counter("pool.tasks_submitted").value(), 400u);
}

// ----------------------------------------------------- profiler

TEST(ProfilerTest, ScopesWithoutARunningProfilerAreSafe) {
  ASSERT_EQ(installed_profiler(), nullptr);
  { ProfScope scope("orphan"); }
  prof_set_thread_name("still-no-profiler");
  SUCCEED();
}

TEST(ProfilerTest, MergesMainAndWorkerLanesAndRanksHotspots) {
  Profiler prof;
  prof.start();
  EXPECT_EQ(installed_profiler(), &prof);
  { ProfScope scope("unit.main"); }
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i)
      pool.submit([] { ProfScope scope("unit.work"); });
    pool.wait_idle();
  }
  prof.stop();
  EXPECT_EQ(installed_profiler(), nullptr);

  ASSERT_GE(prof.lanes(), 2u);
  EXPECT_EQ(prof.lane_names()[0], "main");
  bool has_worker = false;
  for (const std::string& lane : prof.lane_names())
    has_worker = has_worker || lane.rfind("worker-", 0) == 0;
  EXPECT_TRUE(has_worker);

  EXPECT_GT(prof.total_seconds(), 0.0);
  EXPECT_GT(prof.span_seconds("unit.main"), 0.0);
  EXPECT_GT(prof.span_seconds("unit.work"), 0.0);
  // The pool wraps every task in its own span.
  EXPECT_GT(prof.span_seconds("pool.task"), 0.0);

  std::ostringstream table;
  prof.hotspot_table(3).print(table);
  EXPECT_NE(table.str().find("hotspots"), std::string::npos);
  EXPECT_NE(table.str().find("pool.task"), std::string::npos);

  std::ostringstream chrome;
  prof.write_chrome(chrome);
  EXPECT_NE(chrome.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.str().find("unit.work"), std::string::npos);
  EXPECT_EQ(chrome.str().substr(chrome.str().size() - 3), "]}\n");
}

TEST(ProfilerTest, RestartsCleanlyAfterStop) {
  Profiler prof;
  prof.start();
  { ProfScope scope("round.one"); }
  prof.stop();
  const std::size_t first_lanes = prof.lanes();
  prof.start();
  { ProfScope scope("round.two"); }
  prof.stop();
  EXPECT_GE(prof.lanes(), 1u);
  EXPECT_LE(prof.lanes(), first_lanes);
  EXPECT_GT(prof.span_seconds("round.two"), 0.0);
  EXPECT_DOUBLE_EQ(prof.span_seconds("round.one"), 0.0);  // not carried over
}

// ------------------------------------- observation changes no result

TEST(ProfilerTest, AttachingInstrumentationDoesNotChangeTheExactSolver) {
  // 3x4 has 462 arrangements, so at 2 threads the blocks of arrangements
  // run on pool workers.
  Rng rng(21);
  const std::vector<double> pool = rng.cycle_times(12, 0.25);
  ExactSolverOptions opts;
  opts.threads = 2;
  const OptimalArrangement plain = solve_optimal_arrangement(3, 4, pool, opts);

  Profiler prof;
  prof.start();
  ScopedMetrics scoped;
  const OptimalArrangement observed =
      solve_optimal_arrangement(3, 4, pool, opts);
  install_metrics(nullptr);
  prof.stop();

  EXPECT_EQ(plain.grid.row_major(), observed.grid.row_major());
  EXPECT_EQ(bits(plain.solution.obj2), bits(observed.solution.obj2));
  ASSERT_EQ(plain.solution.alloc.r.size(), observed.solution.alloc.r.size());
  for (std::size_t i = 0; i < plain.solution.alloc.r.size(); ++i)
    EXPECT_EQ(bits(plain.solution.alloc.r[i]),
              bits(observed.solution.alloc.r[i]));
  for (std::size_t j = 0; j < plain.solution.alloc.c.size(); ++j)
    EXPECT_EQ(bits(plain.solution.alloc.c[j]),
              bits(observed.solution.alloc.c[j]));
  EXPECT_EQ(plain.solution.tree, observed.solution.tree);
  EXPECT_TRUE(plain.totals == observed.totals);
  EXPECT_EQ(plain.arrangements_cut, observed.arrangements_cut);

  // ... and the run showed up in both sinks, once per arrangement.
  EXPECT_GT(prof.span_seconds("exact.solve"), 0.0);
  EXPECT_EQ(scoped.registry.counter("exact.solves").value(),
            observed.arrangements_tried);
  EXPECT_EQ(scoped.registry.counter("exact.nodes_visited").value(),
            observed.totals.nodes_visited);
  EXPECT_EQ(scoped.registry.counter("exact.subtrees_pruned").value(),
            observed.totals.subtrees_pruned);
  EXPECT_EQ(scoped.registry.counter("exact.arrangements_cut").value(),
            observed.arrangements_cut);
}

TEST(ProfilerTest, AttachingInstrumentationDoesNotChangeMpLu) {
  // The workload of `hetgrid trace --backend=mp --kernel=lu --profile`: an
  // LU under an installed Profiler plus metrics registry computes exactly
  // the plain run's bits, and a 2-thread run shows its block math on a
  // pool worker lane.
  const auto run_lu = [](unsigned threads) {
    const CycleTimeGrid grid =
        CycleTimeGrid::sorted_row_major(2, 3, {1, 2, 3, 4, 5, 6});
    const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
    const Machine machine{grid, {Topology::kSwitched, 1e-4, 2e-4, true}};
    RuntimeOptions opts;
    opts.threads = threads;
    Rng rng(7);
    Matrix a(48, 48);
    fill_diagonally_dominant(a.view(), rng);
    run_mp_lu(machine, dist, a.view(), 8, KernelCosts{}, false, nullptr,
              opts);
    return a;
  };
  const auto same_bits = [](const Matrix& x, const Matrix& y) {
    for (std::size_t j = 0; j < x.cols(); ++j)
      for (std::size_t i = 0; i < x.rows(); ++i)
        if (bits(x.view()(i, j)) != bits(y.view()(i, j))) return false;
    return true;
  };
  const Matrix plain = run_lu(1);

  Profiler prof;
  prof.start();
  Matrix observed;
  {
    ScopedMetrics scoped;
    observed = run_lu(1);
    EXPECT_GT(scoped.registry.counter("gemm.calls").value(), 0u);
  }
  prof.stop();
  EXPECT_TRUE(same_bits(plain, observed));
  EXPECT_GT(prof.span_seconds("mp.lu"), 0.0);

  Profiler threaded;
  threaded.start();
  const Matrix pooled = run_lu(2);
  threaded.stop();
  EXPECT_TRUE(same_bits(plain, pooled));
  bool has_worker = false;
  for (const std::string& lane : threaded.lane_names())
    has_worker = has_worker || lane.rfind("worker-", 0) == 0;
  EXPECT_TRUE(has_worker);
}

TEST(ProfilerTest, SerialMetricsSnapshotIsByteStableAcrossRuns) {
  // The determinism contract from doc/observability.md: with --threads=1
  // every recorded metric derives from the computation, never from wall
  // time, so two identical runs must produce identical snapshot bytes.
  const auto run_once = [] {
    Rng rng(31);
    const CycleTimeGrid g(2, 2, rng.cycle_times(4, 0.1));
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const NetworkModel net{Topology::kSwitched, 1e-3, 1e-3, true};
    const std::size_t block = 4, nb = 6, n = block * nb;
    Matrix a(n, n);
    fill_diagonally_dominant(a.view(), rng);
    ScopedMetrics scoped;
    const MpReport rep = run_mp_lu(Machine{g, net}, d, a.view(), block,
                                   KernelCosts{}, false, nullptr,
                                   RuntimeOptions{});
    HG_CHECK(rep.factorized, "LU failed in metrics stability test");
    return scoped.registry.snapshot_json();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"gemm.calls\""), std::string::npos);
  EXPECT_NE(first.find("\"block_store.pool_hits\""), std::string::npos);
  // Wall-clock metrics must be absent on the serial path.
  EXPECT_EQ(first.find("task_run_us"), std::string::npos);
  EXPECT_EQ(first.find("task_wait_us"), std::string::npos);
}

}  // namespace
}  // namespace hetgrid
