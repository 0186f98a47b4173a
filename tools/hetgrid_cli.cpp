// hetgrid command-line interface.
//
// Subcommands:
//   solve     --times=1,2,3,6 --p=2 --q=2 [--solver=heuristic|exact|auto]
//             [--threads=1] [--max-trees=50000000]
//             solve the 2D load-balancing problem, print the arrangement,
//             shares, workload matrix, and objective. --threads parallelizes
//             the exact branch-and-bound (0 = all hardware threads) without
//             changing any output bit.
//   design    --times=... [--spread-report]
//             sweep all grid shapes for the pool and recommend one.
//   panel     --times=... --p=2 --q=2 --bp=8 --bq=6 [--order=lu|mmm]
//             print the rounded block panel (slot maps + multiplicities)
//             and its neighbor census.
//   simulate  --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=64
//             [--network=free|switched|ethernet] [--strategy=...]
//             simulate a kernel under a strategy and print the report.
//   trace     --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=16
//             [--backend=sim|mp] [--out=trace.json] [--threads=1] [...]
//             run a kernel with the trace recorder on, write a Chrome /
//             Perfetto trace.json, and print per-processor utilization.
//             --threads parallelizes the mp backend's real block math
//             (0 = all hardware threads); trace and numerics are
//             bit-identical for any thread count. Both backends take the
//             simulate command's --rebalance/--straggler flags.
//   profile   --times=... --p=2 --q=2 [--out=profile.json]
//             [--metrics=metrics.json] [--threads=1]
//             run a representative workload (exact solve + mp LU) under
//             the wall-clock profiler and metrics registry.
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
//             the canonicalizing solution cache. --smoke=1 instead runs
//             the concurrent loopback self-check (--clients client threads
//             hammer the in-process server; every response must be
//             bit-identical to a direct solver call and the warm phase
//             must hit the cache).
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
// Everything prints aligned tables; add --csv for machine-readable copies.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "hetgrid.hpp"
#include "util/cli.hpp"

namespace hetgrid::cli {

std::vector<double> parse_times(const std::string& csv) {
  return parse_positive_list(csv);
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

  ProfileSession(std::string profile, std::string metric_out)
      : profile_path(std::move(profile)), metrics_path(std::move(metric_out)) {}

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
      // time to scheduler and cache behavior (doc/observability.md).
      os << "run counters: pool.steals="
         << metrics.counter("pool.steals").value()
         << " gemm.pack_hits=" << metrics.counter("gemm.pack_hits").value()
         << " gemm.pack_misses="
         << metrics.counter("gemm.pack_misses").value()
         << " gemm.pack_evictions="
         << metrics.counter("gemm.pack_evictions").value()
         << " block_store.pool_evictions="
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
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");

  ExactSolverOptions exact_opts;
  const long long threads = cli.get_int("threads");
  HG_CHECK(threads >= 0, "--threads must be >= 0 (0 = all hardware threads)");
  exact_opts.threads = static_cast<unsigned>(threads);
  const long long max_trees = cli.get_int("max-trees");
  HG_CHECK(max_trees > 0, "--max-trees must be positive");
  exact_opts.max_trees = static_cast<std::uint64_t>(max_trees);

  const std::string solver = cli.get_string("solver");
  if (solver == "heuristic") {
    const HeuristicResult res = solve_heuristic(p, q, pool);
    std::cout << "solver: heuristic (" << res.iterations() << " steps, "
              << (res.converged ? "converged" : "step cap hit") << ")\n";
    print_allocation(res.final().grid, res.final().alloc, std::cout);
    return 0;
  }
  if (solver == "exact" ||
      (solver == "auto" && exact_solver_cost(p, q) <= 100000 &&
       pool.size() <= 10)) {
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
                 {"solver", "auto"}, {"csv", "0"},
                 {"threads", "1"}, {"max-trees", "50000000"},
                 {"profile", ""}, {"metrics", ""}});
  ProfileSession session(cli.get_string("profile"), cli.get_string("metrics"));
  session.begin();
  const int rc = run_solve(cli);
  session.end(std::cout);
  return rc;
}

int cmd_design(int argc, const char* const* argv) {
  const Cli cli(argc, argv, {{"times", ""}, {"csv", "0"}});
  const std::vector<double> pool = parse_times(cli.get_string("times"));
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
                 {"bq", "0"}, {"order", "lu"}, {"csv", "0"}});
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");
  const auto bp = static_cast<std::size_t>(cli.get_int("bp"));
  const auto bq = static_cast<std::size_t>(cli.get_int("bq"));
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
// and --ewma-alpha / --drift-band configure the estimator when the caller
// declares them.
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
    const long long onset = cli.get_int("straggler-onset");
    const long long recover = cli.get_int("straggler-recover");
    HG_CHECK(onset >= 0 && recover >= 0,
             "--straggler-onset/--straggler-recover must be >= 0");
    opts.trace = CycleTimeTrace::straggler(
        parse_proc_list(straggler), factor, static_cast<std::size_t>(onset),
        static_cast<std::size_t>(recover));
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
  if (cli.has("min-samples")) {
    const long long ms = cli.get_int("min-samples");
    HG_CHECK(ms >= 1, "--min-samples must be >= 1");
    opts.estimator.min_samples = static_cast<std::uint64_t>(ms);
  }
}

// Runs one simulator kernel by its CLI name (mmm|lu|qr|chol).
SimReport simulate_kernel(const std::string& kernel, const Machine& machine,
                          const Distribution2D& dist, std::size_t nb,
                          TraceSink* sink, const RuntimeOptions& opts) {
  if (kernel == "mmm") return simulate_mmm(machine, dist, nb, {}, sink, opts);
  if (kernel == "lu") return simulate_lu(machine, dist, nb, {}, sink, opts);
  if (kernel == "qr") return simulate_qr(machine, dist, nb, {}, sink, opts);
  HG_CHECK(kernel == "chol", "unknown --kernel: " << kernel);
  return simulate_cholesky(machine, dist, nb, {}, sink, opts);
}

struct StrategyChoice {
  CycleTimeGrid grid;
  std::unique_ptr<Distribution2D> dist;
};

StrategyChoice build_strategy(const std::string& strategy, std::size_t p,
                              std::size_t q, const std::vector<double>& pool,
                              std::size_t scale) {
  StrategyChoice out{CycleTimeGrid::sorted_row_major(p, q, pool), nullptr};
  if (strategy == "block-cyclic") {
    out.dist = std::make_unique<PanelDistribution>(
        PanelDistribution::block_cyclic(p, q));
  } else if (strategy == "kl") {
    out.dist = std::make_unique<KalinovLastovetskyDistribution>(
        out.grid, scale * p, scale * q);
  } else if (strategy == "heuristic") {
    const HeuristicResult h = solve_heuristic(p, q, pool);
    out.grid = h.final().grid;
    out.dist = std::make_unique<PanelDistribution>(
        PanelDistribution::from_allocation(
            out.grid, h.final().alloc, scale * p, scale * q,
            PanelOrder::kContiguous, PanelOrder::kInterleaved, "heuristic"));
  } else {
    HG_CHECK(false, "unknown --strategy: " << strategy
                                           << " (block-cyclic|kl|heuristic)");
  }
  return out;
}

int cmd_simulate(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", ""}, {"p", "0"}, {"q", "0"},
                 {"kernel", "mmm"}, {"nb", "64"}, {"network", "switched"},
                 {"strategy", "heuristic"}, {"scale", "8"}, {"csv", "0"},
                 {"trace", "0"}, {"rebalance", "off"}, {"straggler", ""},
                 {"straggler-factor", "4"}, {"straggler-onset", "0"},
                 {"straggler-recover", "0"}, {"ewma-alpha", "0.25"},
                 {"drift-band", "0.5"}, {"min-samples", "2"}});
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");
  const auto nb = static_cast<std::size_t>(cli.get_int("nb"));
  const auto scale = static_cast<std::size_t>(cli.get_int("scale"));

  const std::string network = cli.get_string("network");
  const NetworkModel net = parse_network_flag(network);
  const std::string strategy = cli.get_string("strategy");
  StrategyChoice choice = build_strategy(strategy, p, q, pool, scale);
  const CycleTimeGrid& grid = choice.grid;
  const std::unique_ptr<Distribution2D>& dist = choice.dist;

  const Machine machine{grid, net};
  const std::string kernel = cli.get_string("kernel");
  RuntimeOptions opts;
  apply_rebalance_flags(cli, opts);
  const SimReport rep =
      simulate_kernel(kernel, machine, *dist, nb, nullptr, opts);

  Table table("simulated " + kernel + " (" + std::to_string(nb) + "x" +
              std::to_string(nb) + " blocks, " + strategy + ", " + network +
              ")");
  table.header({"metric", "value"});
  table.row({"total time (s)", Table::num(rep.total_time, 2)});
  table.row({"compute time (s)", Table::num(rep.compute_time, 2)});
  table.row({"comm time (s)", Table::num(rep.comm_time, 2)});
  table.row({"perfect bound (s)", Table::num(rep.perfect_compute_bound, 2)});
  table.row({"slowdown vs perfect", Table::num(rep.slowdown_vs_perfect(), 3)});
  table.row({"avg utilization", Table::num(rep.average_utilization(), 3)});
  if (opts.rebalance == RuntimeOptions::Rebalance::kPanel) {
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
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");
  const auto nb = static_cast<std::size_t>(cli.get_int("nb"));
  const auto scale = static_cast<std::size_t>(cli.get_int("scale"));
  const auto block = static_cast<std::size_t>(cli.get_int("block"));
  const std::string backend = cli.get_string("backend");
  const std::string kernel = cli.get_string("kernel");
  const std::string out_path = cli.get_string("out");
  const long long threads = cli.get_int("threads");
  HG_CHECK(threads >= 0, "--threads must be >= 0 (0 = all hardware threads)");
  RuntimeOptions run_opts;
  run_opts.threads = static_cast<unsigned>(threads);
  apply_rebalance_flags(cli, run_opts);

  const NetworkModel net = parse_network_flag(cli.get_string("network"));
  StrategyChoice choice =
      build_strategy(cli.get_string("strategy"), p, q, pool, scale);
  const Machine machine{choice.grid, net};
  const Distribution2D& dist = *choice.dist;

  MemoryTraceSink sink;
  const KernelCosts costs;
  const bool rebalance =
      run_opts.rebalance == RuntimeOptions::Rebalance::kPanel;
  double makespan = 0.0;
  if (backend == "sim") {
    const SimReport rep =
        simulate_kernel(kernel, machine, dist, nb, &sink, run_opts);
    makespan = rep.total_time;
    if (rebalance)
      std::cout << "rebalance: " << rep.migrations << " applied, "
                << rep.blocks_moved << " blocks migrated\n";
  } else if (backend == "mp") {
    // The message-passing runtime executes real arithmetic, so build a
    // small n = nb * block matrix and run it for real.
    const std::size_t n = nb * block;
    Rng rng(7);
    MpReport rep;
    if (kernel == "mmm") {
      Matrix a(n, n), b(n, n), c(n, n);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      rep = run_mp_mmm(machine, dist, a.view(), b.view(), c.view(), block,
                       costs, &sink, run_opts);
    } else if (kernel == "lu") {
      Matrix a(n, n);
      fill_diagonally_dominant(a.view(), rng);
      rep = run_mp_lu(machine, dist, a.view(), block, costs, false, &sink,
                      run_opts);
    } else if (kernel == "chol") {
      Matrix a(n, n);
      fill_spd(a.view(), rng);
      rep = run_mp_cholesky(machine, dist, a.view(), block, costs, &sink,
                            run_opts);
    } else if (kernel == "qr") {
      Matrix a(n, n);
      fill_random(a.view(), rng);
      rep = run_mp_qr(machine, dist, a.view(), block, costs, &sink,
                      run_opts);
    } else {
      HG_CHECK(false, "mp backend supports --kernel=mmm|lu|chol|qr, got "
                          << kernel);
    }
    makespan = rep.makespan;
    if (rebalance)
      std::cout << "rebalance: " << rep.rebalances << " applied, "
                << rep.rebalance_blocks << " blocks migrated\n";
  } else {
    HG_CHECK(false, "unknown --backend: " << backend << " (sim|mp)");
  }

  std::vector<double> cycle_times(p * q);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < q; ++j)
      cycle_times[i * q + j] = machine.grid(i, j);
  const std::vector<std::string> labels =
      proc_lane_labels(p, q, cycle_times.data());

  std::vector<TraceEvent> events = sink.events();
  append_idle_events(events, p * q, makespan);
  {
    std::ofstream os(out_path);
    HG_CHECK(os.good(), "cannot open --out file: " << out_path);
    write_chrome_trace(os, events, p * q, labels);
  }

  const TraceSummary summary = summarize_trace(sink.events(), p * q, makespan);
  Table table = utilization_table(
      summary, labels,
      kernel + " on " + std::to_string(p) + "x" + std::to_string(q) + " (" +
          backend + " backend), makespan " + Table::num(summary.makespan, 3) +
          " s");
  table.print(std::cout);
  if (cli.get_bool("csv")) table.print_csv(std::cout);
  std::cout << "wrote " << events.size() << " events to " << out_path
            << " (open in https://ui.perfetto.dev or chrome://tracing)\n";
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", ""}, {"p", "0"}, {"q", "0"},
                 {"kernel", "mmm"}, {"nb", "16"}, {"backend", "sim"},
                 {"network", "switched"}, {"strategy", "heuristic"},
                 {"scale", "8"}, {"block", "4"}, {"out", "trace.json"},
                 {"csv", "0"}, {"threads", "1"}, {"profile", ""},
                 {"metrics", ""}, {"rebalance", "off"}, {"straggler", ""},
                 {"straggler-factor", "4"}, {"straggler-onset", "0"},
                 {"straggler-recover", "0"}});
  ProfileSession session(cli.get_string("profile"), cli.get_string("metrics"));
  session.begin();
  const int rc = run_trace(cli);
  session.end(std::cout);
  return rc;
}

// The representative workload behind `hetgrid profile`: a parallel exact
// solve (branch-and-bound fan-out) followed by a real message-passing LU
// (block math + pooled numerics). Returns the exact solve's Obj2.
double run_profile_workload(const std::vector<double>& pool, std::size_t p,
                            std::size_t q, unsigned threads, std::size_t nb,
                            std::size_t block) {
  ExactSolverOptions eo;
  eo.threads = threads;
  const OptimalArrangement opt = solve_optimal_arrangement(p, q, pool, eo);

  const CycleTimeGrid grid = CycleTimeGrid::sorted_row_major(p, q, pool);
  const PanelDistribution dist = PanelDistribution::block_cyclic(p, q);
  const Machine machine{grid, parse_network_flag("switched")};
  RuntimeOptions ro;
  ro.threads = threads;
  Rng rng(7);
  Matrix lu(nb * block, nb * block);
  fill_diagonally_dominant(lu.view(), rng);
  run_mp_lu(machine, dist, lu.view(), block, KernelCosts{}, false, nullptr,
            ro);
  return opt.solution.obj2;
}

int cmd_profile(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", "1,2,3,4,5,6"}, {"p", "2"}, {"q", "3"},
                 {"nb", "6"}, {"block", "8"}, {"threads", "1"},
                 {"out", "profile.json"}, {"metrics", ""}});
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");
  const auto nb = static_cast<std::size_t>(cli.get_int("nb"));
  const auto block = static_cast<std::size_t>(cli.get_int("block"));
  const long long threads = cli.get_int("threads");
  HG_CHECK(threads >= 0, "--threads must be >= 0 (0 = all hardware threads)");

  ProfileSession session(cli.get_string("out"), cli.get_string("metrics"));
  session.begin();
  const double obj2 = run_profile_workload(
      pool, p, q, static_cast<unsigned>(threads), nb, block);
  session.end(std::cout);
  std::cout << "workload: exact solve (obj2 = " << Table::num(obj2, 4)
            << ") + mp LU on " << nb * block << "x" << nb * block << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// observe: the load-imbalance observatory (doc/observability.md).

// One mp kernel run shaped like the trace path's: real block math on an
// n = nb * block matrix with deterministic inputs from Rng(7).
MpReport observe_mp_run(const std::string& kernel, const Machine& machine,
                        const Distribution2D& dist, std::size_t nb,
                        std::size_t block, const RuntimeOptions& run_opts) {
  const std::size_t n = nb * block;
  const KernelCosts costs;
  Rng rng(7);
  Matrix out(n, n);
  if (kernel == "mmm") {
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    return run_mp_mmm(machine, dist, a.view(), b.view(), out.view(), block,
                      costs, nullptr, run_opts);
  }
  if (kernel == "lu") {
    fill_diagonally_dominant(out.view(), rng);
    return run_mp_lu(machine, dist, out.view(), block, costs, false, nullptr,
                     run_opts);
  }
  if (kernel == "chol") {
    fill_spd(out.view(), rng);
    return run_mp_cholesky(machine, dist, out.view(), block, costs, nullptr,
                           run_opts);
  }
  HG_CHECK(kernel == "qr",
           "observe supports --kernel=mmm|lu|chol|qr, got " << kernel);
  fill_random(out.view(), rng);
  return run_mp_qr(machine, dist, out.view(), block, costs, nullptr,
                   run_opts);
}

int run_observe(const Cli& cli) {
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");
  const auto nb = static_cast<std::size_t>(cli.get_int("nb"));
  const auto scale = static_cast<std::size_t>(cli.get_int("scale"));
  const auto block = static_cast<std::size_t>(cli.get_int("block"));
  const std::string backend = cli.get_string("backend");
  const std::string kernel = cli.get_string("kernel");
  const long long threads = cli.get_int("threads");
  HG_CHECK(threads >= 0, "--threads must be >= 0 (0 = all hardware threads)");
  RuntimeOptions run_opts;
  run_opts.threads = static_cast<unsigned>(threads);
  apply_rebalance_flags(cli, run_opts);

  StrategyChoice choice =
      build_strategy(cli.get_string("strategy"), p, q, pool, scale);
  const Machine machine{choice.grid, parse_network_flag(
                                         cli.get_string("network"))};
  const Distribution2D& dist = *choice.dist;

  HG_CHECK(backend == "sim" || backend == "mp",
           "unknown --backend: " << backend << " (sim|mp)");
  HG_CHECK(kernel == "mmm" || kernel == "lu" || kernel == "qr" ||
               kernel == "chol",
           "observe supports --kernel=mmm|lu|chol|qr, got " << kernel);

  RunObservation obs(run_opts.estimator);
  RunObservation* prev = install_observation(&obs);
  std::vector<double> busy, finish;
  if (backend == "sim") {
    const SimReport rep =
        simulate_kernel(kernel, machine, dist, nb, nullptr, run_opts);
    busy = rep.busy;
    // Bulk-synchronous simulation: every lane holds its data until the
    // run's end, so the finish clock is the total time on each lane.
    finish.assign(busy.size(), rep.total_time);
  } else {
    const MpReport rep =
        observe_mp_run(kernel, machine, dist, nb, block, run_opts);
    busy = rep.busy;
    finish = rep.clock;
  }
  install_observation(prev);

  const ImbalanceReport report =
      build_imbalance_report(obs, busy, finish, &machine.grid, q);
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

int cmd_observe(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"times", ""}, {"p", "0"}, {"q", "0"},
                 {"kernel", "lu"}, {"nb", "8"}, {"backend", "mp"},
                 {"network", "switched"}, {"strategy", "heuristic"},
                 {"scale", "8"}, {"block", "4"}, {"threads", "1"},
                 {"out", ""}, {"json", "0"}, {"rebalance", "off"},
                 {"straggler", ""},
                 {"straggler-factor", "4"}, {"straggler-onset", "0"},
                 {"straggler-recover", "0"}, {"ewma-alpha", "0.25"},
                 {"drift-band", "0.5"}, {"min-samples", "2"}});
  return run_observe(cli);
}

// ---------------------------------------------------------------------------
// serve / query: the placement service (doc/server.md).

// One distinct workload of the serve smoke: a grid shape, a pool of
// cycle-times, and the direct solver answer every server response is
// compared against.
struct SmokeCase {
  std::size_t p;
  std::size_t q;
  std::vector<double> pool;
  OptimalArrangement direct;
};

// Builds a request for `sc` with the pool optionally shuffled and scaled.
// Scales are powers of two so the FP bit-identity claims below are exact
// (doc/server.md "Canonicalization").
serve::PlacementRequest smoke_request(const SmokeCase& sc, Rng& rng,
                                      double scale, bool shuffle) {
  std::vector<std::size_t> order(sc.pool.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  if (shuffle) rng.shuffle(order);
  serve::PlacementRequest req;
  req.p = static_cast<std::uint16_t>(sc.p);
  req.q = static_cast<std::uint16_t>(sc.q);
  req.mode = serve::Mode::kAuto;
  req.times.resize(sc.pool.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    req.times[k] = sc.pool[order[k]] * scale;
  return req;
}

// Checks one smoke response against the direct solver call. With
// `bit_identity` (the unscaled phase) the response must match the direct
// solve bit for bit: same r, c, objective, and a perm that reproduces the
// canonical arrangement. Scaled requests share a cache entry whose scale
// convention depends on which request populated it, so the scaled phase
// asserts the scale-free bitwise invariants instead: objective ==
// direct/scale and every workload product r_i * t_ij * c_j identical to
// the direct solve's (exact under power-of-two scalings). Returns "" on
// success, a diagnostic otherwise (the client threads must not throw).
std::string check_smoke_response(const SmokeCase& sc,
                                 const serve::PlacementRequest& req,
                                 double scale, bool bit_identity,
                                 const std::vector<std::uint8_t>& reply) {
  const serve::Decoded d = serve::decode_payload(reply);
  if (!d.ok()) return std::string("reply failed to decode: ") +
                      serve::wire_error_name(d.parse_error);
  if (d.type == serve::MsgType::kError)
    return std::string("server error: ") +
           serve::wire_error_name(d.error.code) + " " + d.error.detail;
  if (d.type != serve::MsgType::kResponse) return "reply is not a response";
  const serve::PlacementResponse& rsp = d.response;
  if (rsp.p != sc.p || rsp.q != sc.q) return "response shape mismatch";
  if (rsp.r.size() != sc.p || rsp.c.size() != sc.q ||
      rsp.perm.size() != sc.p * sc.q)
    return "response vector sizes mismatch";

  // perm must be a permutation of the request slots that lays out the
  // canonical (sorted) arrangement the solvers used.
  std::vector<bool> used(req.times.size(), false);
  for (std::size_t i = 0; i < sc.p; ++i)
    for (std::size_t j = 0; j < sc.q; ++j) {
      const std::uint32_t idx = rsp.perm[i * sc.q + j];
      if (idx >= req.times.size() || used[idx]) return "perm is not a permutation";
      used[idx] = true;
      if (req.times[idx] != sc.direct.grid(i, j) * scale)
        return "perm does not reproduce the canonical arrangement";
    }

  if (bit_identity) {
    if (rsp.solver != serve::SolverKind::kExact)
      return "expected the exact solver on this shape";
    if (rsp.objective != sc.direct.solution.obj2)
      return "objective differs from the direct solve";
    for (std::size_t i = 0; i < sc.p; ++i)
      if (rsp.r[i] != sc.direct.solution.alloc.r[i])
        return "row shares differ from the direct solve";
    for (std::size_t j = 0; j < sc.q; ++j)
      if (rsp.c[j] != sc.direct.solution.alloc.c[j])
        return "column shares differ from the direct solve";
    return "";
  }

  if (rsp.cache_state == serve::CacheState::kMiss)
    return "warm-phase request missed the cache";
  if (rsp.objective != sc.direct.solution.obj2 / scale)
    return "scaled objective is not direct/scale";
  for (std::size_t i = 0; i < sc.p; ++i)
    for (std::size_t j = 0; j < sc.q; ++j) {
      const double got = rsp.r[i] * (sc.direct.grid(i, j) * scale) * rsp.c[j];
      const double want = sc.direct.solution.alloc.r[i] *
                          sc.direct.grid(i, j) *
                          sc.direct.solution.alloc.c[j];
      if (got != want) return "workload products differ from the direct solve";
    }
  return "";
}

// The concurrent loopback self-check behind `hetgrid serve --smoke`
// (doc/server.md, tools/ci.sh). Phase A: client threads send an unscaled
// mix (in-order and shuffled pools); every response — miss or hit, any
// interleaving — must be bit-identical to a direct solve_optimal_arrangement
// call, and the repeats must raise the cache hit counter. Phase B: the
// same pools return shuffled and scaled by powers of two; responses must
// all hit the cache and preserve the scale-free bitwise invariants.
int serve_smoke(unsigned clients, unsigned requests, std::uint64_t seed,
                const serve::ServerOptions& opts) {
  std::vector<SmokeCase> cases;
  const std::size_t shapes[][2] = {{2, 2}, {2, 3}, {3, 2}, {3, 3}};
  for (std::size_t s = 0; s < 4; ++s) {
    const std::size_t p = shapes[s][0], q = shapes[s][1];
    Rng rng(seed + s);
    std::vector<double> pool = rng.cycle_times(p * q);
    OptimalArrangement direct = solve_optimal_arrangement(p, q, pool);
    cases.push_back(SmokeCase{p, q, std::move(pool), std::move(direct)});
  }
  HG_CHECK(clients >= 1 && requests >= 1, "--clients/--requests must be >= 1");
  HG_CHECK(static_cast<std::size_t>(clients) * requests > 2 * cases.size(),
           "--clients * --requests too small to warm the cache");

  MetricsRegistry metrics;
  MetricsRegistry* prev = install_metrics(&metrics);
  serve::PlacementServer server(opts);

  // One error slot per client; threads write only their own slot.
  std::vector<std::string> errors(clients);
  auto run_phase = [&](bool bit_identity) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(seed * 977 + t + (bit_identity ? 0 : 100000));
        for (unsigned i = 0; i < requests && errors[t].empty(); ++i) {
          const SmokeCase& sc = cases[(t + i) % cases.size()];
          const bool shuffle = !bit_identity || i % 2 == 1;
          const double scale =
              bit_identity ? 1.0 : (i % 3 == 0 ? 1.0 : i % 3 == 1 ? 2.0 : 0.25);
          const serve::PlacementRequest req =
              smoke_request(sc, rng, scale, shuffle);
          const std::vector<std::uint8_t> reply =
              server.handle_payload(serve::encode_request(req));
          const std::string err =
              check_smoke_response(sc, req, scale, bit_identity, reply);
          if (!err.empty())
            errors[t] = err + " (client " + std::to_string(t) + ", request " +
                        std::to_string(i) + ")";
        }
      });
    }
    for (std::thread& th : threads) th.join();
  };

  run_phase(/*bit_identity=*/true);
  const std::uint64_t cold_hits = metrics.counter("serve.cache.hits").value();
  run_phase(/*bit_identity=*/false);
  server.drain();

  // kStats round trip over the same framed path the clients used: the
  // introspection reply must decode, report the real cache occupancy, and
  // carry the installed observation's estimator lanes bit for bit
  // (doc/server.md "Introspection").
  {
    RunObservation obs;
    obs.estimator.sample(3, ObsOp::kUpdate, 4.0, 2.0, 0);
    obs.estimator.sample(3, ObsOp::kUpdate, 4.0, 2.0, 1);
    RunObservation* prev_obs = install_observation(&obs);
    const std::vector<std::uint8_t> reply =
        server.handle_payload(serve::encode_stats_request());
    install_observation(prev_obs);
    const serve::Decoded d = serve::decode_payload(reply);
    HG_CHECK(d.ok() && d.type == serve::MsgType::kStatsResponse,
             "serve smoke: stats request did not round-trip");
    HG_CHECK(d.stats.cache_entries == server.cache().size() &&
                 d.stats.cache_shards == server.cache().shard_count(),
             "serve smoke: stats cache occupancy mismatch");
    HG_CHECK(!d.stats.metrics_json.empty(),
             "serve smoke: stats carried no metrics snapshot");
    HG_CHECK(d.stats.estimates.size() == 1 &&
                 d.stats.estimates[0].proc == 3 &&
                 d.stats.estimates[0].estimate == 0.5 &&
                 d.stats.estimates[0].samples == 2,
             "serve smoke: estimator lane did not survive the wire");
  }
  install_metrics(prev);

  for (const std::string& err : errors)
    HG_CHECK(err.empty(), "serve smoke failed: " << err);
  const std::uint64_t hits = metrics.counter("serve.cache.hits").value();
  const std::uint64_t misses = metrics.counter("serve.cache.misses").value();
  HG_CHECK(cold_hits > 0, "unscaled phase never hit the cache");
  // Each client misses a workload at most once (its own insert completes
  // before it revisits the key), but first encounters racing on one key may
  // each miss — lookup/solve/insert is not one atomic step.
  HG_CHECK(misses >= cases.size() && misses <= clients * cases.size(),
           "cache miss count " << misses << " outside [" << cases.size()
                               << ", " << clients * cases.size() << "]");
  std::cout << "serve smoke: " << clients << " client(s) x " << 2 * requests
            << " requests over " << cases.size()
            << " workloads: all responses bit-identical to direct solver "
               "calls; cache hits "
            << hits << ", misses " << misses
            << "; kStats round trip ok\n";
  return 0;
}

namespace {
std::atomic<bool> g_interrupted{false};
void on_signal(int) { g_interrupted.store(true, std::memory_order_relaxed); }
}  // namespace

int cmd_serve(int argc, const char* const* argv) {
  const Cli cli(argc, argv,
                {{"port", "0"}, {"unix", ""}, {"threads", "2"},
                 {"shards", "16"}, {"no-refine", "0"}, {"smoke", "0"},
                 {"clients", "4"}, {"requests", "32"}, {"seed", "42"},
                 {"csv", "0"}});
  serve::ServerOptions opts;
  const long long threads = cli.get_int("threads");
  HG_CHECK(threads >= 0, "--threads must be >= 0 (0 = all hardware threads)");
  opts.threads = static_cast<unsigned>(threads);
  const long long shards = cli.get_int("shards");
  HG_CHECK(shards >= 1, "--shards must be >= 1");
  opts.cache_shards = static_cast<std::size_t>(shards);
  opts.async_refine = !cli.get_bool("no-refine");

  if (cli.get_bool("smoke"))
    return serve_smoke(static_cast<unsigned>(cli.get_int("clients")),
                       static_cast<unsigned>(cli.get_int("requests")),
                       static_cast<std::uint64_t>(cli.get_int("seed")), opts);

  const std::string unix_path = cli.get_string("unix");
  std::uint16_t bound = 0;
  int fd = -1;
  if (!unix_path.empty()) {
    fd = serve::listen_unix(unix_path);
    std::cout << "listening on unix socket " << unix_path << '\n';
  } else {
    fd = serve::listen_tcp(static_cast<std::uint16_t>(cli.get_int("port")),
                           &bound);
    std::cout << "listening on 127.0.0.1:" << bound << '\n';
  }
  std::cout << "placement server up (" << (threads == 0 ? "all" :
            std::to_string(threads)) << " worker thread(s)); Ctrl-C stops\n"
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
                 {"stats", "0"}, {"csv", "0"}});
  if (cli.get_bool("stats")) {
    serve::Endpoint ep;
    ep.unix_path = cli.get_string("unix");
    ep.port = static_cast<std::uint16_t>(cli.get_int("port"));
    HG_CHECK(!ep.unix_path.empty() || ep.port != 0,
             "pass --port=N or --unix=path of a running `hetgrid serve`");
    return query_stats_report(ep);
  }
  const std::vector<double> pool = parse_times(cli.get_string("times"));
  const auto p = static_cast<std::size_t>(cli.get_int("p"));
  const auto q = static_cast<std::size_t>(cli.get_int("q"));
  HG_CHECK(p * q == pool.size(),
           "--p * --q must equal the number of cycle-times");

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
  const long long deadline = cli.get_int("deadline-us");
  HG_CHECK(deadline >= 0, "--deadline-us must be >= 0 (0 = none)");
  req.deadline_us = static_cast<std::uint64_t>(deadline);

  serve::Endpoint ep;
  ep.unix_path = cli.get_string("unix");
  ep.port = static_cast<std::uint16_t>(cli.get_int("port"));
  HG_CHECK(!ep.unix_path.empty() || ep.port != 0,
           "pass --port=N or --unix=path of a running `hetgrid serve`");

  const serve::Decoded d = serve::query_server(ep, req);
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
      "<solve|design|panel|simulate|trace|profile|observe|serve|query>"
      " [--flags]\n"
      "  solve    --times=1,2,3,6 --p=2 --q=2 [--solver=heuristic|exact|auto]\n"
      "           [--threads=1] [--max-trees=50000000]\n"
      "           (--threads=0 uses all hardware threads; the exact result\n"
      "            is identical for any thread count)\n"
      "  design   --times=0.2,0.3,...\n"
      "  panel    --times=... --p=2 --q=2 --bp=8 --bq=6 [--order=lu|mmm]\n"
      "  simulate --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=64\n"
      "           [--network=free|switched|ethernet]\n"
      "           [--strategy=block-cyclic|kl|heuristic]\n"
      "           [--rebalance=off|panel] [--straggler=0,1\n"
      "           --straggler-factor=4 --straggler-onset=0\n"
      "           --straggler-recover=0] [--ewma-alpha=0.25]\n"
      "           (the straggler preset slows the listed processors\n"
      "            mid-run; --rebalance=panel re-solves the allocation at\n"
      "            panel boundaries and migrates blocks — doc/rebalance.md)\n"
      "  trace    --times=... --p=2 --q=2 --kernel=mmm|lu|qr|chol --nb=16\n"
      "           [--backend=sim|mp] [--out=trace.json] [--block=4]\n"
      "           [--network=...] [--strategy=...] [--threads=1]\n"
      "           [--rebalance=off|panel] [--straggler=... as in simulate]\n"
      "           (--threads parallelizes the mp backend's block math;\n"
      "            0 = all hardware threads, output is bit-identical)\n"
      "  profile  --times=1,2,3,4,5,6 --p=2 --q=3 [--out=profile.json]\n"
      "           [--metrics=metrics.json] [--threads=1]\n"
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
      "           [--no-refine] [--smoke=0 --clients=4 --requests=32\n"
      "           --seed=42]\n"
      "           (--smoke runs the concurrent loopback self-check:\n"
      "            every response bit-identical to a direct solver call\n"
      "            and the warm mix must hit the cache; see doc/server.md)\n"
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
    if (cmd == "profile") return cli::cmd_profile(argc - 1, argv + 1);
    if (cmd == "observe") return cli::cmd_observe(argc - 1, argv + 1);
    if (cmd == "serve") return cli::cmd_serve(argc - 1, argv + 1);
    if (cmd == "query") return cli::cmd_query(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return cli::usage();
}
