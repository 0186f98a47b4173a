// hetgrid command-line interface.
//
// Subcommands:
//   solve     --times=1,2,3,6 --p=2 --q=2 [--solver=heuristic|exact|auto]
//             [--threads=1] [--max-trees=50000000]
//             solve the 2D load-balancing problem, print the arrangement,
//             shares, workload matrix, and objective. --threads runs the
//             exact search's arrangements in blocks of 64 on that many
//             threads (0 = all hardware threads) without changing any
//             output bit.
//   design    --times=... [--csv]
//             sweep all grid shapes for the pool and recommend one.
//   panel     --times=... --p=2 --q=2 --bp=8 --bq=6 [--order=lu|mmm]
//             print the rounded block panel (slot maps + multiplicities)
//             and its neighbor census.
//   simulate  --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=64
//             [--network=free|switched|ethernet] [--strategy=...] [--csv]
//             simulate a kernel under a strategy and print the report.
//   trace     --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=16
//             [--backend=sim|mp] [--out=trace.json] [--threads=1] [...]
//             run a kernel with the trace recorder on, write a Chrome /
//             Perfetto trace.json, and print per-processor utilization.
//             --threads parallelizes the mp backend's real block math
//             (0 = all hardware threads); trace and numerics are
//             bit-identical for any thread count. Both backends take the
//             simulate command's --rebalance/--straggler flags.
//   observe   --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol [--nb=8]
//             [--backend=sim|mp] [--block=4] [--threads=1]
//             [--json] [--out=imbalance.json]
//             run one kernel under the cycle-time estimator and print the
//             load-imbalance report: makespan vs the paper's lower bound,
//             per-processor busy/idle/slack, critical-path attribution
//             (mp backend), estimated vs true t_ij, and drift events.
//   serve     [--port=0 | --unix=path] [--threads=2] [--no-refine]
//             run the placement server (doc/server.md): length-prefixed
//             binary requests over TCP or a unix socket, answered through
//             the canonicalizing solution cache.
//   query     --times=1,2,3,6 --p=2 --q=2 [--port=7070 | --unix=path]
//             [--mode=auto|exact|heuristic] [--deadline-us=0] [--stats]
//             send one placement request to a running server and print
//             the arrangement, shares, and cache/solver provenance.
//             --stats instead asks for the server's kStats introspection
//             snapshot: cache occupancy, metrics JSON, estimator lanes.
//
// solve and trace also take [--profile=prof.json] [--metrics=metrics.json]
// to attach the wall-clock profiler / metrics registry to that run.
//
// Everything prints aligned tables; design, simulate and trace add --csv
// for machine-readable copies.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "hetgrid.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid::cli {

// Reads integer flag --name as a T in [lo, hi] (lo >= 0, hi no more than
// T's maximum). The range is checked before the cast, so a negative or
// oversized value is rejected with the flag's name instead of wrapping into
// a huge size or another port.
template <typename T = std::size_t>
T int_flag(const Cli& cli, const std::string& name, std::int64_t lo = 1,
           std::uint64_t hi = std::numeric_limits<T>::max()) {
  const std::int64_t v = cli.get_int(name);
  HG_CHECK(v >= lo, "--" << name << " must be >= " << lo << ", got " << v);
  HG_CHECK(static_cast<std::uint64_t>(v) <= hi,
           "--" << name << " must be <= " << hi << ", got " << v);
  return static_cast<T>(v);
}

// The --times pool and the --p x --q grid it must fill exactly.
struct Shape {
  std::vector<double> pool;
  std::size_t p, q;
};

Shape read_shape(const Cli& cli) {
  Shape s{parse_positive_list(cli.get_string("times")), int_flag(cli, "p"),
          int_flag(cli, "q")};
  HG_CHECK(s.pool.size() % s.p == 0 && s.pool.size() / s.p == s.q,
           "--p * --q must equal the number of cycle-times ("
               << s.pool.size() << ")");
  return s;
}

void print_allocation(const CycleTimeGrid& grid, const GridAllocation& alloc,
                      std::ostream& os) {
  os << "arrangement (cycle-times):\n" << grid.to_string(4);
  os << "row shares r:";
  for (double r : alloc.r) os << ' ' << Table::num(r, 4);
  os << "\ncolumn shares c:";
  for (double c : alloc.c) os << ' ' << Table::num(c, 4);
  os << "\nworkload matrix B (busy fractions):\n";
  const std::vector<double> b = workload_matrix(grid, alloc);
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    for (std::size_t j = 0; j < grid.cols(); ++j)
      os << (j ? " " : "") << Table::num(b[i * grid.cols() + j], 4);
    os << '\n';
  }
  os << "objective (sum r)(sum c) = " << Table::num(obj2_value(alloc), 4)
     << "  of capacity bound " << Table::num(obj2_upper_bound(grid), 4)
     << "  (" << Table::num(100.0 * obj2_value(alloc) / obj2_upper_bound(grid),
                            1)
     << "%)\naverage workload = "
     << Table::num(average_workload(grid, alloc), 4) << '\n';
}

// Attaches the wall-clock profiler and/or a metrics registry to the scope
// between begin() and end(); either path may be empty (that side is then a
// no-op and the run is indistinguishable from an uninstrumented one).
// A profiled scope always collects metrics so the hotspot table can carry
// the machinery counters in its footer; the snapshot is written to disk
// only when a --metrics path was given.
struct ProfileSession {
  std::string profile_path, metrics_path;
  Profiler profiler;
  MetricsRegistry metrics;
  MetricsRegistry* prev_metrics = nullptr;
  bool metrics_installed = false;

  explicit ProfileSession(const Cli& cli)
      : profile_path(cli.get_string("profile")),
        metrics_path(cli.get_string("metrics")) {}

  void begin() {
    if (!metrics_path.empty() || !profile_path.empty()) {
      prev_metrics = install_metrics(&metrics);
      metrics_installed = true;
    }
    if (!profile_path.empty()) profiler.start();
  }

  void end(std::ostream& os) {
    if (metrics_installed) install_metrics(prev_metrics);
    if (!profile_path.empty()) {
      profiler.stop();
      std::ofstream f(profile_path);
      HG_CHECK(f.good(), "cannot open --profile file: " << profile_path);
      profiler.write_chrome(f);
      profiler.hotspot_table().print(os);
      // Footer: the run's machinery counters, so one glance links hotspot
      // time to block-pool behavior (doc/observability.md).
      os << "run counters: block_store.pool_evictions="
         << metrics.counter("block_store.pool_evictions").value() << '\n';
      os << "wrote " << profiler.lanes() << "-lane profile to "
         << profile_path << '\n';
    }
    if (!metrics_path.empty()) {
      std::ofstream f(metrics_path);
      HG_CHECK(f.good(), "cannot open --metrics file: " << metrics_path);
      metrics.write_json(f);
      os << "wrote metrics to " << metrics_path << '\n';
    }
  }
};

int run_solve(const Cli& cli) {
  const auto [pool, p, q] = read_shape(cli);
  ExactSolverOptions exact_opts;
  exact_opts.threads =
      int_flag<unsigned>(cli, "threads", 0, ThreadPool::kMaxThreads);
  exact_opts.max_trees = int_flag<std::uint64_t>(cli, "max-trees");

  const std::string solver = cli.get_string("solver");
  if (solver == "heuristic") {
    const HeuristicResult res = solve_heuristic(p, q, pool);
    std::cout << "solver: heuristic (" << res.iterations() << " steps, "
              << (res.converged ? "converged" : "step cap hit") << ")\n";
    print_allocation(res.final().grid, res.final().alloc, std::cout);
    return 0;
  }
  if (solver == "exact" || (solver == "auto" && exact_affordable(p, q))) {
    const OptimalArrangement opt =
        solve_optimal_arrangement(p, q, pool, exact_opts);
    std::cout << "solver: exact (" << opt.arrangements_tried
              << " non-decreasing arrangements x "
              << exact_solver_cost(p, q) << " spanning trees, "
              << (exact_opts.threads == 0 ? std::string("all")
                                          : std::to_string(exact_opts.threads))
              << " thread(s); best arrangement: " << opt.solution.nodes_visited
              << " nodes, " << opt.solution.subtrees_pruned << " pruned, "
              << opt.solution.trees_acceptable << " acceptable trees)\n";
    print_allocation(opt.grid, opt.solution.alloc, std::cout);
    return 0;
  }
  HG_CHECK(solver == "auto", "unknown --solver: " << solver);
  const HeuristicResult res = solve_heuristic(p, q, pool);
  std::cout << "solver: heuristic (exact too costly for this size; "
            << res.iterations() << " steps)\n";
  print_allocation(res.final().grid, res.final().alloc, std::cout);
  return 0;
}

int cmd_solve(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", ""}, {"p", "0"}, {"q", "0"},
                 {"solver", "auto"}, {"threads", "1"},
                 {"max-trees", "50000000"}, {"profile", ""}, {"metrics", ""}});
  ProfileSession session(cli);
  session.begin();
  const int rc = run_solve(cli);
  session.end(std::cout);
  return rc;
}

int cmd_design(int argc, const char* const* argv) {
  const Cli cli(argc, argv, {{"times", ""}, {"csv", "0"}});
  const std::vector<double> pool =
      parse_positive_list(cli.get_string("times"));
  const std::size_t n = pool.size();

  Table table("grid shapes for " + std::to_string(n) + " processors");
  table.header({"shape", "obj2", "efficiency", "steps"});
  double best_eff = 0.0;
  std::string best;
  for (std::size_t p = 1; p <= n; ++p) {
    if (n % p != 0) continue;
    const std::size_t q = n / p;
    const HeuristicResult h = solve_heuristic(p, q, pool);
    const double eff = h.final().obj2 / obj2_upper_bound(h.final().grid);
    table.row({std::to_string(p) + "x" + std::to_string(q),
               Table::num(h.final().obj2, 4), Table::num(eff, 4),
               Table::num(static_cast<std::int64_t>(h.iterations()))});
    if (eff > best_eff) {
      best_eff = eff;
      best = std::to_string(p) + "x" + std::to_string(q);
    }
  }
  table.print(std::cout);
  if (cli.get_bool("csv")) table.print_csv(std::cout);
  std::cout << "recommended: " << best << " ("
            << Table::num(100.0 * best_eff, 1) << "% of aggregate speed)\n";
  return 0;
}

int cmd_panel(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", ""}, {"p", "0"}, {"q", "0"}, {"bp", "0"},
                 {"bq", "0"}, {"order", "lu"}});
  const auto [pool, p, q] = read_shape(cli);
  const std::size_t bp = int_flag(cli, "bp");
  const std::size_t bq = int_flag(cli, "bq");
  HG_CHECK(bp >= p && bq >= q, "--bp/--bq must be at least --p/--q");
  const std::string order = cli.get_string("order");
  HG_CHECK(order == "lu" || order == "mmm",
           "--order must be lu (interleaved columns) or mmm (contiguous)");

  const HeuristicResult h = solve_heuristic(p, q, pool);
  const PanelDistribution dist = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, bp, bq, PanelOrder::kContiguous,
      order == "lu" ? PanelOrder::kInterleaved : PanelOrder::kContiguous,
      "panel");

  std::cout << "arrangement:\n" << h.final().grid.to_string(4);
  std::cout << "panel " << bp << "x" << bq << "\nrow slot map:   ";
  for (std::size_t g : dist.row_map()) std::cout << g << ' ';
  std::cout << "\ncolumn slot map:";
  for (std::size_t g : dist.col_map()) std::cout << ' ' << g;
  std::cout << "\nrow multiplicities:";
  for (std::size_t m : dist.row_multiplicities()) std::cout << ' ' << m;
  std::cout << "\ncolumn multiplicities:";
  for (std::size_t m : dist.col_multiplicities()) std::cout << ' ' << m;
  const NeighborCensus census = neighbor_census(dist);
  std::cout << "\naligned (4-neighbor grid pattern): "
            << (census.grid_pattern() ? "yes" : "no")
            << "\nmax west neighbors: " << census.max_west_neighbors
            << ", max north neighbors: " << census.max_north_neighbors
            << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// simulate / trace / observe: one kernel run on one machine.

NetworkModel parse_network_flag(const std::string& network) {
  if (network == "free") return NetworkModel::free();
  if (network == "switched") return {Topology::kSwitched, 1e-4, 2e-4, true};
  if (network == "ethernet") return {Topology::kEthernet, 1e-4, 2e-4, true};
  HG_CHECK(false, "unknown --network: " << network);
}

// Parses a comma-separated processor index list ("0,1,3") — unlike
// parse_positive_list, index 0 is valid.
std::vector<std::size_t> parse_proc_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tok = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    HG_CHECK(!tok.empty() &&
                 tok.find_first_not_of("0123456789") == std::string::npos,
             "bad processor index in --straggler: '" << tok << "'");
    out.push_back(static_cast<std::size_t>(std::stoull(tok)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  HG_CHECK(!out.empty(), "empty --straggler processor list");
  return out;
}

// Folds the shared rebalance and drift flags into `opts` (doc/rebalance.md):
// --rebalance=off|panel turns the panel-boundary rebalancer on, the
// --straggler preset slows the listed processors by --straggler-factor
// from step --straggler-onset (--straggler-recover > 0 heals them there),
// and --ewma-alpha / --drift-band / --min-samples configure the estimator
// when the caller declares them.
void apply_rebalance_flags(const Cli& cli, RuntimeOptions& opts) {
  const std::string reb = cli.get_string("rebalance");
  if (reb == "panel") {
    opts.rebalance = RuntimeOptions::Rebalance::kPanel;
  } else {
    HG_CHECK(reb == "off", "--rebalance must be off or panel, got " << reb);
  }
  const std::string straggler = cli.get_string("straggler");
  if (!straggler.empty()) {
    const double factor = cli.get_double("straggler-factor");
    HG_CHECK(factor > 0.0, "--straggler-factor must be positive");
    opts.trace = CycleTimeTrace::straggler(
        parse_proc_list(straggler), factor,
        int_flag(cli, "straggler-onset", 0),
        int_flag(cli, "straggler-recover", 0));
  }
  if (cli.has("ewma-alpha")) {
    const double alpha = cli.get_double("ewma-alpha");
    HG_CHECK(alpha > 0.0 && alpha <= 1.0, "--ewma-alpha must be in (0, 1]");
    opts.estimator.alpha = alpha;
  }
  if (cli.has("drift-band")) {
    const double band = cli.get_double("drift-band");
    HG_CHECK(band > 0.0, "--drift-band must be positive");
    opts.estimator.drift_band = band;
  }
  if (cli.has("min-samples"))
    opts.estimator.min_samples = int_flag<std::uint64_t>(cli, "min-samples");
}

// The flags simulate, trace and observe all declare, with that subcommand's
// --kernel and --nb defaults, plus its own `extra` flags.
std::map<std::string, std::string> kernel_run_spec(
    const char* kernel, const char* nb,
    std::map<std::string, std::string> extra) {
  extra.insert({{"times", ""}, {"p", "0"}, {"q", "0"}, {"kernel", kernel},
                {"nb", nb}, {"network", "switched"},
                {"strategy", "heuristic"}, {"scale", "8"},
                {"rebalance", "off"}, {"straggler", ""},
                {"straggler-factor", "4"}, {"straggler-onset", "0"},
                {"straggler-recover", "0"}});
  return extra;
}

// The estimator flags simulate and observe declare on top.
const std::map<std::string, std::string> kEstimatorFlags = {
    {"ewma-alpha", "0.25"}, {"drift-band", "0.5"}, {"min-samples", "2"}};

// One kernel on one machine, as the shared flags describe it: --strategy
// lays a distribution on the --times pool (block-cyclic and kl on the
// sorted row-major arrangement, heuristic on the heuristic's own), and
// --threads (0 = all hardware threads), --block and the rebalance flags
// fill in the run, where the subcommand declares them.
struct KernelRun {
  std::string kernel, strategy, network;
  std::size_t p, q, nb, block;
  Machine machine;
  std::unique_ptr<Distribution2D> dist;
  RuntimeOptions opts;
};

KernelRun parse_kernel_run(const Cli& cli) {
  const auto [pool, p, q] = read_shape(cli);
  const std::string kernel = cli.get_string("kernel");
  HG_CHECK(kernel == "mmm" || kernel == "lu" || kernel == "qr" ||
               kernel == "chol",
           "unknown --kernel: " << kernel << " (mmm|lu|qr|chol)");
  const std::size_t nb = int_flag(cli, "nb");
  const std::size_t scale = int_flag(cli, "scale");
  const std::size_t block = cli.has("block") ? int_flag(cli, "block") : 1;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  HG_CHECK(nb <= kMax / block, "--nb * --block is too large");
  HG_CHECK(scale <= kMax / std::max(p, q), "--scale * --p/--q is too large");
  const std::string network = cli.get_string("network");
  const NetworkModel net = parse_network_flag(network);

  const std::string strategy = cli.get_string("strategy");
  CycleTimeGrid grid = CycleTimeGrid::sorted_row_major(p, q, pool);
  std::unique_ptr<Distribution2D> dist;
  if (strategy == "block-cyclic") {
    dist = std::make_unique<PanelDistribution>(
        PanelDistribution::block_cyclic(p, q));
  } else if (strategy == "kl") {
    dist = std::make_unique<KalinovLastovetskyDistribution>(grid, scale * p,
                                                            scale * q);
  } else {
    HG_CHECK(strategy == "heuristic",
             "unknown --strategy: " << strategy
                                    << " (block-cyclic|kl|heuristic)");
    const HeuristicResult h = solve_heuristic(p, q, pool);
    grid = h.final().grid;
    dist = std::make_unique<PanelDistribution>(
        PanelDistribution::from_allocation(
            grid, h.final().alloc, scale * p, scale * q,
            PanelOrder::kContiguous, PanelOrder::kInterleaved, "heuristic"));
  }

  KernelRun run{kernel, strategy, network, p, q, nb, block,
                Machine{std::move(grid), net}, std::move(dist), {}};
  if (cli.has("threads"))
    run.opts.threads =
        int_flag<unsigned>(cli, "threads", 0, ThreadPool::kMaxThreads);
  apply_rebalance_flags(cli, run.opts);
  return run;
}

// Runs the simulator kernel `run` names.
SimReport simulate_kernel(const KernelRun& run, TraceSink* sink) {
  const Machine& m = run.machine;
  const Distribution2D& d = *run.dist;
  const std::size_t nb = run.nb;
  if (run.kernel == "mmm") return simulate_mmm(m, d, nb, {}, sink, run.opts);
  if (run.kernel == "lu") return simulate_lu(m, d, nb, {}, sink, run.opts);
  if (run.kernel == "qr") return simulate_qr(m, d, nb, {}, sink, run.opts);
  return simulate_cholesky(m, d, nb, {}, sink, run.opts);
}

// Runs the message-passing kernel `run` names with real block math on an
// n = nb * block matrix, inputs drawn deterministically from Rng(7).
MpReport mp_kernel(const KernelRun& run, TraceSink* sink) {
  const std::size_t n = run.nb * run.block;
  const KernelCosts costs;
  Rng rng(7);
  Matrix out(n, n);
  if (run.kernel == "mmm") {
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    return run_mp_mmm(run.machine, *run.dist, a.view(), b.view(), out.view(),
                      run.block, costs, sink, run.opts);
  }
  if (run.kernel == "lu") {
    fill_diagonally_dominant(out.view(), rng);
    return run_mp_lu(run.machine, *run.dist, out.view(), run.block, costs,
                     false, sink, run.opts);
  }
  if (run.kernel == "chol") {
    fill_spd(out.view(), rng);
    return run_mp_cholesky(run.machine, *run.dist, out.view(), run.block,
                           costs, sink, run.opts);
  }
  fill_random(out.view(), rng);
  return run_mp_qr(run.machine, *run.dist, out.view(), run.block, costs, sink,
                   run.opts);
}

int cmd_simulate(int argc, const char* const* argv) {
  std::map<std::string, std::string> extra = kEstimatorFlags;
  extra.insert({{"csv", "0"}, {"trace", "0"}});
  const Cli cli(argc, argv, kernel_run_spec("mmm", "64", extra));
  const KernelRun run = parse_kernel_run(cli);
  const SimReport rep = simulate_kernel(run, nullptr);

  Table table("simulated " + run.kernel + " (" + std::to_string(run.nb) +
              "x" + std::to_string(run.nb) + " blocks, " + run.strategy +
              ", " + run.network + ")");
  table.header({"metric", "value"});
  table.row({"total time (s)", Table::num(rep.total_time, 2)});
  table.row({"compute time (s)", Table::num(rep.compute_time, 2)});
  table.row({"comm time (s)", Table::num(rep.comm_time, 2)});
  table.row({"perfect bound (s)", Table::num(rep.perfect_compute_bound, 2)});
  table.row({"slowdown vs perfect", Table::num(rep.slowdown_vs_perfect(), 3)});
  table.row({"avg utilization", Table::num(rep.average_utilization(), 3)});
  if (run.opts.rebalance == RuntimeOptions::Rebalance::kPanel) {
    table.row({"rebalance re-solves",
               Table::num(static_cast<std::int64_t>(rep.resolves))});
    table.row({"rebalances applied",
               Table::num(static_cast<std::int64_t>(rep.migrations))});
    table.row({"blocks migrated",
               Table::num(static_cast<std::int64_t>(rep.blocks_moved))});
  }
  table.print(std::cout);
  if (cli.get_bool("csv")) table.print_csv(std::cout);
  for (const RebalanceEvent& e : rep.events)
    std::cout << "rebalance: step " << e.step << " moved " << e.blocks_moved
              << " blocks, sweep " << Table::num(e.current_sweep, 3) << " -> "
              << Table::num(e.proposed_sweep, 3) << " (cost "
              << Table::num(e.migration_cost, 4) << ")\n";

  if (cli.get_bool("trace")) {
    Table trace("per-step timeline (first and last 5 steps)");
    trace.header({"step", "panel", "row", "update", "comm"});
    auto emit_step = [&](const StepRecord& s) {
      trace.row({Table::num(static_cast<std::int64_t>(s.step)),
                 Table::num(s.panel, 3), Table::num(s.row, 3),
                 Table::num(s.update, 3), Table::num(s.comm, 4)});
    };
    const std::size_t total = rep.steps.size();
    for (std::size_t i = 0; i < std::min<std::size_t>(5, total); ++i)
      emit_step(rep.steps[i]);
    if (total > 10) trace.row({"...", "", "", "", ""});
    for (std::size_t i = total > 5 ? std::max<std::size_t>(5, total - 5) : total;
         i < total; ++i)
      emit_step(rep.steps[i]);
    std::cout << '\n';
    trace.print(std::cout);
  }
  return 0;
}

int run_trace(const Cli& cli) {
  const KernelRun run = parse_kernel_run(cli);
  const std::string backend = cli.get_string("backend");
  const std::string out_path = cli.get_string("out");

  MemoryTraceSink sink;
  const bool rebalance =
      run.opts.rebalance == RuntimeOptions::Rebalance::kPanel;
  double makespan = 0.0;
  if (backend == "sim") {
    const SimReport rep = simulate_kernel(run, &sink);
    makespan = rep.total_time;
    if (rebalance)
      std::cout << "rebalance: " << rep.migrations << " applied, "
                << rep.blocks_moved << " blocks migrated\n";
  } else {
    HG_CHECK(backend == "mp", "unknown --backend: " << backend << " (sim|mp)");
    const MpReport rep = mp_kernel(run, &sink);
    makespan = rep.makespan;
    if (rebalance)
      std::cout << "rebalance: " << rep.rebalances << " applied, "
                << rep.rebalance_blocks << " blocks migrated\n";
  }

  const std::size_t procs = run.p * run.q;
  const std::vector<std::string> labels = proc_lane_labels(
      run.p, run.q, run.machine.grid.row_major().data());
  std::vector<TraceEvent> events = sink.events();
  append_idle_events(events, procs, makespan);
  {
    std::ofstream os(out_path);
    HG_CHECK(os.good(), "cannot open --out file: " << out_path);
    write_chrome_trace(os, events, procs, labels);
  }

  const TraceSummary summary = summarize_trace(sink.events(), procs, makespan);
  Table table = utilization_table(
      summary, labels,
      run.kernel + " on " + std::to_string(run.p) + "x" +
          std::to_string(run.q) + " (" + backend + " backend), makespan " +
          Table::num(summary.makespan, 3) + " s");
  table.print(std::cout);
  if (cli.get_bool("csv")) table.print_csv(std::cout);
  std::cout << "wrote " << events.size() << " events to " << out_path
            << " (open in https://ui.perfetto.dev or chrome://tracing)\n";
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                kernel_run_spec("mmm", "16",
                                {{"backend", "sim"}, {"block", "4"},
                                 {"out", "trace.json"}, {"csv", "0"},
                                 {"threads", "1"}, {"profile", ""},
                                 {"metrics", ""}}));
  ProfileSession session(cli);
  session.begin();
  const int rc = run_trace(cli);
  session.end(std::cout);
  return rc;
}

// observe: the load-imbalance observatory (doc/observability.md).
int cmd_observe(int argc, const char* const* argv) {
  std::map<std::string, std::string> extra = kEstimatorFlags;
  extra.insert({{"backend", "mp"}, {"block", "4"}, {"threads", "1"},
                {"out", ""}, {"json", "0"}});
  const Cli cli(argc, argv, kernel_run_spec("lu", "8", extra));
  const KernelRun run = parse_kernel_run(cli);
  const std::string backend = cli.get_string("backend");
  HG_CHECK(backend == "sim" || backend == "mp",
           "unknown --backend: " << backend << " (sim|mp)");

  RunObservation obs(run.opts.estimator);
  RunObservation* prev = install_observation(&obs);
  std::vector<double> busy, finish;
  if (backend == "sim") {
    const SimReport rep = simulate_kernel(run, nullptr);
    busy = rep.busy;
    // Bulk-synchronous simulation: every lane holds its data until the
    // run's end, so the finish clock is the total time on each lane.
    finish.assign(busy.size(), rep.total_time);
  } else {
    const MpReport rep = mp_kernel(run, nullptr);
    busy = rep.busy;
    finish = rep.clock;
  }
  install_observation(prev);

  const ImbalanceReport report =
      build_imbalance_report(obs, busy, finish, &run.machine.grid, run.q);
  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    HG_CHECK(os.good(), "cannot open --out file: " << out_path);
    write_imbalance_json(os, report);
  }
  if (cli.get_bool("json"))
    write_imbalance_json(std::cout, report);
  else
    print_imbalance(std::cout, report);
  if (!out_path.empty())
    std::cout << "wrote imbalance report to " << out_path << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// serve / query: the placement service (doc/server.md).

namespace {
std::atomic<bool> g_interrupted{false};
void on_signal(int) { g_interrupted.store(true, std::memory_order_relaxed); }
}  // namespace

int cmd_serve(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"port", "0"}, {"unix", ""}, {"threads", "2"},
                 {"shards", "16"}, {"no-refine", "0"}});
  serve::ServerOptions opts;
  opts.threads =
      int_flag<unsigned>(cli, "threads", 0, ThreadPool::kMaxThreads);
  opts.cache_shards =
      int_flag(cli, "shards", 1, serve::SolutionCache::kMaxShards);
  opts.async_refine = !cli.get_bool("no-refine");
  const auto port = int_flag<std::uint16_t>(cli, "port", 0);

  const std::string unix_path = cli.get_string("unix");
  std::uint16_t bound = 0;
  int fd = -1;
  if (!unix_path.empty()) {
    fd = serve::listen_unix(unix_path);
    std::cout << "listening on unix socket " << unix_path << '\n';
  } else {
    fd = serve::listen_tcp(port, &bound);
    std::cout << "listening on 127.0.0.1:" << bound << '\n';
  }
  std::cout << "placement server up ("
            << (opts.threads == 0 ? "all" : std::to_string(opts.threads))
            << " worker thread(s)); Ctrl-C stops\n"
            << std::flush;

  // A live server keeps a metrics registry installed so `hetgrid query
  // --stats` sees the serve.* counters and latency histograms in its
  // kStats snapshot.
  MetricsRegistry metrics;
  MetricsRegistry* prev = install_metrics(&metrics);
  serve::PlacementServer server(opts);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::thread acceptor([&server, fd] { server.serve_fd(fd); });
  while (!g_interrupted.load(std::memory_order_relaxed) && !server.stopping())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.shutdown();
  acceptor.join();
  install_metrics(prev);
  std::cout << "drained; " << server.cache().size()
            << " cached solution(s)\n";
  return 0;
}

// The running server --port / --unix points at.
serve::Endpoint read_endpoint(const Cli& cli) {
  serve::Endpoint ep;
  ep.unix_path = cli.get_string("unix");
  ep.port = int_flag<std::uint16_t>(cli, "port", 0);
  HG_CHECK(!ep.unix_path.empty() || ep.port != 0,
           "pass --port=N or --unix=path of a running `hetgrid serve`");
  return ep;
}

// `hetgrid query --stats`: prints a live server's introspection snapshot —
// cache occupancy, metrics registry JSON, and the estimator lane table.
int query_stats_report(const serve::Endpoint& ep) {
  const serve::Decoded d = serve::query_stats(ep);
  HG_CHECK(d.ok(), "malformed reply: " << serve::wire_error_name(d.parse_error));
  if (d.type == serve::MsgType::kError) {
    std::cerr << "server error: " << serve::wire_error_name(d.error.code)
              << (d.error.code == serve::WireError::kBadType
                      ? " (server predates kStats)"
                      : "")
              << '\n';
    return 1;
  }
  HG_CHECK(d.type == serve::MsgType::kStatsResponse,
           "reply is not a stats response");
  const serve::StatsReply& s = d.stats;
  std::cout << "cache: " << s.cache_entries << " entr"
            << (s.cache_entries == 1 ? "y" : "ies") << " across "
            << s.cache_shards << " shard(s)\n";
  std::cout << "drift events: " << s.drift_events << '\n';
  if (!s.estimates.empty()) {
    std::cout << "proc  op       est t_ij     units  samples\n";
    for (const serve::StatsReply::Estimate& e : s.estimates)
      std::cout << std::setw(4) << e.proc << "  " << std::left << std::setw(7)
                << obs_op_name(static_cast<ObsOp>(e.op)) << std::right
                << std::setw(11) << format_compact(e.estimate)
                << std::setw(10) << format_compact(e.units) << std::setw(9)
                << e.samples << '\n';
  }
  if (!s.metrics_json.empty()) std::cout << s.metrics_json << '\n';
  return 0;
}

int cmd_query(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", ""}, {"p", "0"}, {"q", "0"}, {"port", "0"},
                 {"unix", ""}, {"mode", "auto"}, {"deadline-us", "0"},
                 {"stats", "0"}});
  if (cli.get_bool("stats")) return query_stats_report(read_endpoint(cli));
  const auto [pool, p, q] = read_shape(cli);

  serve::PlacementRequest req;
  req.p = static_cast<std::uint16_t>(p);
  req.q = static_cast<std::uint16_t>(q);
  req.times = pool;
  const std::string mode = cli.get_string("mode");
  if (mode == "auto")
    req.mode = serve::Mode::kAuto;
  else if (mode == "exact")
    req.mode = serve::Mode::kExact;
  else if (mode == "heuristic")
    req.mode = serve::Mode::kHeuristic;
  else
    HG_CHECK(false, "--mode must be auto, exact, or heuristic");
  req.deadline_us = int_flag<std::uint64_t>(cli, "deadline-us", 0);

  const serve::Decoded d = serve::query_server(read_endpoint(cli), req);
  HG_CHECK(d.ok(), "malformed reply: " << serve::wire_error_name(d.parse_error));
  if (d.type == serve::MsgType::kError) {
    std::cerr << "server error: " << serve::wire_error_name(d.error.code)
              << (d.error.detail.empty() ? "" : ": " + d.error.detail) << '\n';
    return 1;
  }
  HG_CHECK(d.type == serve::MsgType::kResponse, "reply is not a response");
  const serve::PlacementResponse& rsp = d.response;

  std::cout << "solver: "
            << (rsp.solver == serve::SolverKind::kExact ? "exact" : "heuristic")
            << ", cache: "
            << (rsp.cache_state == serve::CacheState::kMiss ? "miss"
                : rsp.cache_state == serve::CacheState::kHit
                    ? "hit"
                    : "hit (refined to exact)")
            << '\n';
  // Re-assemble the served arrangement from the request's times and print
  // it through the same lens as `hetgrid solve`.
  std::vector<double> arranged(rsp.perm.size());
  for (std::size_t k = 0; k < rsp.perm.size(); ++k)
    arranged[k] = req.times[rsp.perm[k]];
  const CycleTimeGrid grid(p, q, arranged);
  GridAllocation alloc;
  alloc.r = rsp.r;
  alloc.c = rsp.c;
  print_allocation(grid, alloc, std::cout);
  return 0;
}

int usage() {
  std::cerr <<
      "usage: hetgrid "
      "<solve|design|panel|simulate|trace|observe|serve|query> [--flags]\n"
      "  solve    --times=1,2,3,6 --p=2 --q=2 [--solver=heuristic|exact|auto]\n"
      "           [--threads=1] [--max-trees=50000000]\n"
      "           (--threads splits the exact search's arrangements into\n"
      "            blocks of 64 across threads, 0 = all hardware threads;\n"
      "            the result is identical for any thread count)\n"
      "  design   --times=0.2,0.3,... [--csv]\n"
      "  panel    --times=... --p=2 --q=2 --bp=8 --bq=6 [--order=lu|mmm]\n"
      "  simulate --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=64\n"
      "           [--network=free|switched|ethernet]\n"
      "           [--strategy=block-cyclic|kl|heuristic] [--scale=8]\n"
      "           [--rebalance=off|panel] [--straggler=0,1\n"
      "           --straggler-factor=4 --straggler-onset=0\n"
      "           --straggler-recover=0] [--ewma-alpha=0.25]\n"
      "           [--trace] [--csv]\n"
      "           (the straggler preset slows the listed processors\n"
      "            mid-run; --rebalance=panel re-solves the allocation at\n"
      "            panel boundaries and migrates blocks — doc/rebalance.md)\n"
      "  trace    --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=16\n"
      "           [--backend=sim|mp] [--out=trace.json] [--block=4]\n"
      "           [--network=...] [--strategy=...] [--threads=1] [--csv]\n"
      "           [--rebalance=off|panel] [--straggler=... as in simulate]\n"
      "           (--threads parallelizes the mp backend's block math;\n"
      "            0 = all hardware threads, output is bit-identical)\n"
      "  observe  --times=1,2,3,6 --p=2 --q=2 --kernel=mmm|lu|qr|chol\n"
      "           [--backend=sim|mp] [--nb=8] [--block=4] [--threads=1]\n"
      "           [--network=...] [--strategy=...]\n"
      "           [--json] [--out=imbalance.json]\n"
      "           [--ewma-alpha=0.25] [--drift-band=0.5] [--min-samples=2]\n"
      "           [--rebalance=off|panel] [--straggler=... as in simulate]\n"
      "           (prints the imbalance report: makespan vs the paper's\n"
      "            lower bound, per-processor busy/idle/slack, critical-path\n"
      "            attribution, and estimated-vs-true t_ij; observation\n"
      "            never changes computed results)\n"
      "  serve    [--port=0 | --unix=path] [--threads=2] [--shards=16]\n"
      "           [--no-refine]\n"
      "  query    --times=1,2,3,6 --p=2 --q=2 (--port=N | --unix=path)\n"
      "           [--mode=auto|exact|heuristic] [--deadline-us=0]\n"
      "           [--stats]  (--stats asks the server for its kStats\n"
      "            introspection snapshot instead of a placement)\n"
      "  solve and trace also accept --profile=prof.json and\n"
      "  --metrics=metrics.json to instrument that run\n";
  return 2;
}

}  // namespace hetgrid::cli

int main(int argc, char** argv) {
  using namespace hetgrid;
  if (argc < 2) return cli::usage();
  const std::string cmd = argv[1];
  // Shift argv so the subcommand's flags start at index 1.
  try {
    if (cmd == "solve") return cli::cmd_solve(argc - 1, argv + 1);
    if (cmd == "design") return cli::cmd_design(argc - 1, argv + 1);
    if (cmd == "panel") return cli::cmd_panel(argc - 1, argv + 1);
    if (cmd == "simulate") return cli::cmd_simulate(argc - 1, argv + 1);
    if (cmd == "trace") return cli::cmd_trace(argc - 1, argv + 1);
    if (cmd == "observe") return cli::cmd_observe(argc - 1, argv + 1);
    if (cmd == "serve") return cli::cmd_serve(argc - 1, argv + 1);
    if (cmd == "query") return cli::cmd_query(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return cli::usage();
}
