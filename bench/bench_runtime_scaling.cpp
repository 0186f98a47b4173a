// Scaling harness for the message-passing runtime's task-graph executor
// (EXPERIMENTS.md table): runs MMM / LU / Cholesky / QR at several thread
// counts on a heterogeneous grid and reports wall-clock speedup plus the
// host-synchronization count. The runtime promises bit-identical results
// for any thread count, and the run enforces it: every MpReport field
// (makespan, per-processor clocks and busy times, message and block
// counters), the QR tau vector, and every gathered matrix entry must match
// the serial run (the graph's inline mode) exactly — only the ms column may
// move. The host-synchronization count ("mp.barriers": one per host_wait
// on a factor task and one per finish) is a property of the kernel, so it
// must match too, and so must the block-pool counters: the host alone
// acquires and erases block buffers, at points the step window fixes in
// emission order.
//
// --smoke shrinks the problem to a CI-sized instance (seconds, not
// minutes) while still crossing the serial/parallel seam at threads
// {1, 2, 7}. It keeps the best-of-`reps` rule: its rows run for 1-10 ms,
// where one sample is mostly host noise.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace {

using namespace hetgrid;

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

bool same_report(const MpReport& x, const MpReport& y) {
  return x.makespan == y.makespan && x.clock == y.clock && x.busy == y.busy &&
         x.messages == y.messages && x.blocks_moved == y.blocks_moved &&
         x.factorized == y.factorized;
}

struct RunResult {
  MpReport report;
  Matrix out;
  std::vector<double> tau;  // QR only
  double ms = 0.0;
  double barriers = 0.0;  // host synchronization points ("mp.barriers")
  // block_store.pool_{hits,misses,evictions}: the transient lifecycle
  std::vector<std::uint64_t> pool;
};

bool same_run(const RunResult& x, const RunResult& y) {
  return same_report(x.report, y.report) && x.tau == y.tau &&
         same_bits(x.out.view(), y.out.view());
}

// One timed kernel execution at a given thread count: fresh inputs each
// time (the factorizations run in place), best-of-`reps` wall clock. The
// timed reps run with no metrics registry installed (metric sites are
// per-task, and by-name registry lookups there would tax the thread counts
// unevenly); one extra untimed, instrumented rep then captures the
// "mp.barriers" host-synchronization count and the block-pool counters,
// and must reproduce the timed result exactly (it is computed on the host
// thread).
RunResult run_kernel(const std::string& kernel, const Machine& machine,
                     const Distribution2D& dist, std::size_t n,
                     std::size_t block, unsigned threads, int reps,
                     std::uint64_t seed) {
  RuntimeOptions opts;
  opts.threads = threads;
  RunResult res;
  for (int r = 0; r <= reps; ++r) {
    const bool instrument = r == reps;  // final rep: counters, not timing
    Rng rng(seed);
    MetricsRegistry metrics;
    MetricsRegistry* prev = instrument ? install_metrics(&metrics) : nullptr;
    RunResult rep;
    if (kernel == "mmm") {
      Matrix a(n, n), b(n, n), c(n, n);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      const auto t0 = std::chrono::steady_clock::now();
      rep.report = run_mp_mmm(machine, dist, a.view(), b.view(), c.view(),
                              block, {}, nullptr, opts);
      const auto t1 = std::chrono::steady_clock::now();
      rep.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      rep.out = std::move(c);
    } else if (kernel == "lu") {
      Matrix a(n, n);
      fill_diagonally_dominant(a.view(), rng);
      const auto t0 = std::chrono::steady_clock::now();
      rep.report = run_mp_lu(machine, dist, a.view(), block, {}, false,
                             nullptr, opts);
      const auto t1 = std::chrono::steady_clock::now();
      rep.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      rep.out = std::move(a);
    } else if (kernel == "chol") {
      Matrix a(n, n);
      fill_spd(a.view(), rng);
      const auto t0 = std::chrono::steady_clock::now();
      rep.report = run_mp_cholesky(machine, dist, a.view(), block, {},
                                   nullptr, opts);
      const auto t1 = std::chrono::steady_clock::now();
      rep.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      rep.out = std::move(a);
    } else if (kernel == "qr") {
      Matrix a(n, n);
      fill_random(a.view(), rng);
      const auto t0 = std::chrono::steady_clock::now();
      const MpQrReport qr =
          run_mp_qr(machine, dist, a.view(), block, {}, nullptr, opts);
      const auto t1 = std::chrono::steady_clock::now();
      rep.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      rep.report = qr;
      rep.tau = qr.tau;
      rep.out = std::move(a);
    } else {
      if (instrument) install_metrics(prev);
      HG_CHECK(false, "unknown kernel: " << kernel << " (mmm|lu|chol|qr)");
    }
    if (instrument) {
      install_metrics(prev);
      rep.barriers =
          static_cast<double>(metrics.counter("mp.barriers").value());
      for (const char* name :
           {"block_store.pool_hits", "block_store.pool_misses",
            "block_store.pool_evictions"})
        rep.pool.push_back(metrics.counter(name).value());
    }
    if (r == 0) {
      res = std::move(rep);
    } else {
      HG_INTERNAL_CHECK(same_run(rep, res),
                        kernel << " run is not deterministic across reps");
      if (instrument) {
        res.barriers = rep.barriers;
        res.pool = rep.pool;
      } else {
        res.ms = std::min(res.ms, rep.ms);
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetgrid;
  Cli cli(argc, argv,
          {{"p", "4"}, {"q", "4"}, {"nb", "16"}, {"block", "32"},
           {"kernels", "mmm,lu,chol,qr"}, {"threads", "1,2,4"},
           {"reps", "3"}, {"seed", "17"}, {"smoke", "0"}, {"csv", "0"},
           {"json", "BENCH_runtime.json"}});
  bench::print_header("Runtime scaling — MP task-graph executor", cli);

  const bool smoke = cli.get_bool("smoke");
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  const auto nb =
      smoke ? std::size_t{4} : static_cast<std::size_t>(cli.get_int("nb"));
  const auto block =
      smoke ? std::size_t{8} : static_cast<std::size_t>(cli.get_int("block"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::size_t n = nb * block;

  std::vector<unsigned> thread_counts;
  if (smoke) {
    // The acceptance matrix: threads {1, 2, 7}.
    thread_counts = {1, 2, 7};
  } else {
    for (double v : parse_positive_list(cli.get_string("threads")))
      thread_counts.push_back(static_cast<unsigned>(v));
  }

  std::vector<std::string> kernels;
  {
    std::string cur;
    for (char c : cli.get_string("kernels") + ",") {
      if (c == ',') {
        if (!cur.empty()) kernels.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
  }

  // Heterogeneous pool, block-cyclic layout: aligned (so LU, Cholesky and
  // QR run) and every processor owns work in every step.
  Rng pool_rng(seed);
  const CycleTimeGrid grid =
      CycleTimeGrid::sorted_row_major(p, q, pool_rng.cycle_times(p * q, 0.25));
  const Machine machine{grid, NetworkModel::free()};
  const PanelDistribution dist = PanelDistribution::block_cyclic(p, q);

  std::cout << "grid " << p << "x" << q << ", n = " << n << " (nb = " << nb
            << ", block = " << block << ")\n\n";

  Table table;
  table.header(
      {"kernel", "threads", "ms", "speedup", "barriers", "identical"});
  bench::JsonReport json("bench_runtime_scaling", cli);
  json.env("scheduler", "dag");

  for (const std::string& kernel : kernels) {
    // Reference: the serial run. Every other thread count must reproduce
    // it bit for bit.
    const RunResult serial =
        run_kernel(kernel, machine, dist, n, block, 1, reps, seed);
    for (const unsigned threads : thread_counts) {
      RunResult fresh;
      const RunResult* run = &serial;
      if (threads != 1) {
        fresh = run_kernel(kernel, machine, dist, n, block, threads, reps,
                           seed);
        run = &fresh;
      }
      const RunResult& res = *run;
      const bool identical = same_run(res, serial) &&
                             res.barriers == serial.barriers &&
                             res.pool == serial.pool;
      HG_INTERNAL_CHECK(identical, kernel << " (" << threads
                                          << " threads) diverged from the "
                                             "serial run");
      const double speedup = res.ms > 0.0 ? serial.ms / res.ms : 0.0;
      table.row({kernel, std::to_string(threads), Table::num(res.ms, 2),
                 Table::num(speedup, 2), Table::num(res.barriers, 0),
                 identical ? "yes" : "NO"});
      json.add()
          .field("kernel", kernel)
          .field("threads", static_cast<double>(threads))
          .field("n", static_cast<double>(n))
          .field("block", static_cast<double>(block))
          .field("ms", res.ms)
          .field("speedup", speedup)
          .field("barriers", res.barriers)
          .field("identical", identical ? "yes" : "no");
    }
  }

  bench::emit(table, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
