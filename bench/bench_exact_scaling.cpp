// Scaling harness for the branch-and-bound exact solver (the EXPERIMENTS.md
// tables). For each grid size it times the exhaustive enumeration against
// the branch-and-bound search of one sorted grid and reports the node/prune
// counters. Then it times the arrangement search (solve_optimal_arrangement:
// one search per non-decreasing arrangement, each above the best found so
// far) at several thread counts. Threads only split the arrangements, so
// every thread count must reproduce the 1-thread winner and every counter —
// the run asserts it — and the only column allowed to move with --threads
// is wall-clock time.
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/arrangement.hpp"
#include "core/exact_solver.hpp"
#include "graph/spanning_tree.hpp"
#include "util/check.hpp"

namespace {

using namespace hetgrid;

// Best of `reps` timed runs of `solve` (the searches are deterministic, so
// min is the right estimator against scheduler noise); `check` compares
// each run with `out`, which holds the first.
template <typename Result, typename Solve, typename Check>
double best_ms(int reps, Result& out, Solve solve, Check check) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    Result res = solve();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
    if (r == 0)
      out = std::move(res);
    else
      check(res);
  }
  return best;
}

double time_solve(const CycleTimeGrid& grid, const ExactSolverOptions& opts,
                  int reps, ExactSolution& out) {
  out = solve_exact(grid, opts);  // warm-up
  return best_ms(reps, out, [&] { return solve_exact(grid, opts); },
                 [&](const ExactSolution& sol) {
                   HG_INTERNAL_CHECK(
                       sol.obj2 == out.obj2 &&
                           sol.nodes_visited == out.nodes_visited,
                       "exact solver is not deterministic across runs");
                 });
}

bool same_search(const OptimalArrangement& a, const OptimalArrangement& b) {
  const ExactSolution& x = a.solution;
  const ExactSolution& y = b.solution;
  return a.grid.row_major() == b.grid.row_major() && x.obj2 == y.obj2 &&
         x.alloc.r == y.alloc.r && x.alloc.c == y.alloc.c &&
         x.tree == y.tree &&
         static_cast<const ExactCounters&>(x) == y &&
         a.arrangements_tried == b.arrangements_tried &&
         a.arrangements_cut == b.arrangements_cut && a.totals == b.totals;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetgrid;
  const Cli cli(argc, argv,
                {{"max-size", "5"}, {"reps", "3"}, {"seed", "29"},
                 {"threads", "1,2,4"}, {"csv", "0"},
                 {"json", "BENCH_exact.json"}});
  bench::print_header("Exact solver scaling — exhaustive vs branch-and-bound",
                      cli);

  const auto max_size = static_cast<std::size_t>(cli.get_int("max-size"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto fits = [max_size](std::size_t p, std::size_t q) {
    return p <= max_size && q <= max_size + 1;
  };

  std::vector<unsigned> thread_counts;
  for (double v : parse_positive_list(cli.get_string("threads")))
    thread_counts.push_back(static_cast<unsigned>(v));

  Table table("one sorted grid, 1 thread");
  table.header({"grid", "trees", "mode", "ms", "nodes", "leaves", "pruned",
                "speedup_vs_exhaustive"});
  bench::JsonReport json("bench_exact_scaling", cli);
  const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {3, 3}, {3, 4}, {4, 4}, {4, 5}, {5, 5}, {5, 6}};
  for (const auto& [p, q] : sizes) {
    if (!fits(p, q)) continue;
    const CycleTimeGrid grid =
        CycleTimeGrid::sorted_row_major(p, q, rng.cycle_times(p * q, 0.05));
    const std::string shape = std::to_string(p) + "x" + std::to_string(q);
    const double trees = static_cast<double>(spanning_tree_count(p, q));

    ExactSolution serial;
    const double serial_ms = time_solve(grid, {}, reps, serial);
    ExactSolution full;
    ExactSolverOptions full_opts;
    full_opts.prune = false;
    const double full_ms = time_solve(grid, full_opts, reps, full);
    HG_INTERNAL_CHECK(full.trees_enumerated == spanning_tree_count(p, q),
                      "exhaustive mode must evaluate every spanning tree");
    const auto add_row = [&](const char* mode, double ms,
                             const ExactSolution& sol, double speedup) {
      table.row({shape, Table::num(trees, 0), mode, Table::num(ms, 2),
                 Table::num(static_cast<double>(sol.nodes_visited), 0),
                 Table::num(static_cast<double>(sol.trees_enumerated), 0),
                 Table::num(static_cast<double>(sol.subtrees_pruned), 0),
                 Table::num(speedup, 2)});
      json.add()
          .field("grid", shape)
          .field("mode", mode)
          .field("threads", 1.0)
          .field("ms", ms)
          .field("nodes", static_cast<double>(sol.nodes_visited))
          .field("leaves", static_cast<double>(sol.trees_enumerated))
          .field("pruned", static_cast<double>(sol.subtrees_pruned));
    };
    add_row("exhaustive", full_ms, full, 1.0);
    add_row("b&b", serial_ms, serial,
            serial_ms > 0.0 ? full_ms / serial_ms : 0.0);
  }
  bench::emit(table, cli);

  // The arrangement search on a seeded pool: the paper's exact method end
  // to end, the path `hetgrid solve --solver=exact --threads=N` runs.
  Table arr("arrangement search (solve_optimal_arrangement)");
  arr.header({"grid", "arrangements", "threads", "ms", "cut", "nodes",
              "pruned", "speedup_vs_1"});
  const std::vector<std::pair<std::size_t, std::size_t>> arr_sizes = {
      {3, 3}, {3, 4}, {4, 4}};
  for (const auto& [p, q] : arr_sizes) {
    if (!fits(p, q)) continue;
    const std::vector<double> pool = rng.cycle_times(p * q, 0.05);
    const std::string shape = std::to_string(p) + "x" + std::to_string(q);
    OptimalArrangement ref;
    double ref_ms = 0.0;
    for (std::size_t k = 0; k < thread_counts.size(); ++k) {
      ExactSolverOptions opts;
      opts.threads = thread_counts[k];
      OptimalArrangement opt;
      const double ms = best_ms(
          reps, opt, [&] { return solve_optimal_arrangement(p, q, pool, opts); },
          [&](const OptimalArrangement& o) {
            HG_INTERNAL_CHECK(same_search(o, opt),
                              "arrangement search is not deterministic");
          });
      if (k == 0) {
        ref = opt;
        ref_ms = ms;
      }
      HG_INTERNAL_CHECK(same_search(opt, ref),
                        "arrangement search diverged across thread counts");
      const double speedup = ms > 0.0 ? ref_ms / ms : 0.0;
      arr.row({shape,
               Table::num(static_cast<double>(opt.arrangements_tried), 0),
               std::to_string(opts.threads), Table::num(ms, 2),
               Table::num(static_cast<double>(opt.arrangements_cut), 0),
               Table::num(static_cast<double>(opt.totals.nodes_visited), 0),
               Table::num(static_cast<double>(opt.totals.subtrees_pruned), 0),
               Table::num(speedup, 2)});
      json.add()
          .field("grid", shape)
          .field("mode", "arrangements")
          .field("threads", static_cast<double>(opts.threads))
          .field("ms", ms)
          .field("arrangements", static_cast<double>(opt.arrangements_tried))
          .field("cut", static_cast<double>(opt.arrangements_cut))
          .field("nodes", static_cast<double>(opt.totals.nodes_visited))
          .field("pruned", static_cast<double>(opt.totals.subtrees_pruned));
    }
  }
  bench::emit(arr, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
