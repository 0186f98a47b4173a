// Strategy comparison for the right-looking LU factorization (and QR with
// --kernel=qr) on a simulated heterogeneous NOW, including the effect of
// the panel-column ordering of Section 3.2.2: "heuristic" uses the 1D
// interleaved column ordering (ABAABA-style), "heuristic-contig" keeps the
// columns contiguous, isolating the ordering's contribution.
#include "bench/bench_common.hpp"
#include "obs/utilization.hpp"

int main(int argc, char** argv) {
  using namespace hetgrid;
  const Cli cli(argc, argv,
                {{"trials", "10"},
                 {"scale", "8"},
                 {"nbfactor", "8"},
                 {"seed", "7"},
                 {"network", "switched"},
                 {"kernel", "lu"},
                 {"csv", "0"}});
  const std::string kernel = cli.get_string("kernel");
  HG_CHECK(kernel == "lu" || kernel == "qr" || kernel == "chol",
           "--kernel must be lu, qr, or chol");
  bench::print_header(
      "Simulated " + kernel +
          " on a heterogeneous NOW — strategies and panel-column ordering",
      cli);

  const NetworkModel net = NetworkModel::named(cli.get_string("network"));
  const std::size_t scale = static_cast<std::size_t>(cli.get_int("scale"));
  const int trials = static_cast<int>(cli.get_int("trials"));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  auto run = [&](const Machine& m, const Distribution2D& d, std::size_t nb,
                 TraceSink* sink) {
    const KernelCosts costs;
    if (kernel == "qr") return simulate_qr(m, d, nb, costs, sink);
    if (kernel == "chol") return simulate_cholesky(m, d, nb, costs, sink);
    return simulate_lu(m, d, nb, costs, sink);
  };

  struct Shape {
    std::size_t p, q;
    bool exact;
  };
  const Shape shapes[] = {{2, 2, true}, {3, 3, true}, {4, 4, false}};

  Table table;
  table.header({"grid", "strategy", "slowdown_vs_perfect", "ci95",
                "utilization", "min_util", "idle_frac"});
  for (const Shape& s : shapes) {
    const std::size_t nb =
        static_cast<std::size_t>(cli.get_int("nbfactor")) * s.p * s.q;
    std::map<std::string, RunningStats> slowdown, util, min_util,
        idle_frac;
    for (int trial = 0; trial < trials; ++trial) {
      const std::vector<double> pool = rng.cycle_times(s.p * s.q);
      // Interleaved columns (the paper's LU ordering).
      auto strategies = bench::build_strategies(
          s.p, s.q, pool, scale, s.exact, PanelOrder::kInterleaved);
      // Plus the contiguous-columns ablation of the heuristic.
      {
        const HeuristicResult h = solve_heuristic(s.p, s.q, pool);
        strategies.push_back(
            {"heuristic-contig", h.final().grid,
             std::make_unique<PanelDistribution>(
                 PanelDistribution::from_allocation(
                     h.final().grid, h.final().alloc, scale * s.p,
                     scale * s.q, PanelOrder::kContiguous,
                     PanelOrder::kContiguous, "heuristic-contig"))});
      }
      for (const auto& st : strategies) {
        const Machine m{st.grid, net};
        MemoryTraceSink sink;
        const SimReport rep = run(m, *st.dist, nb, &sink);
        slowdown[st.name].add(rep.slowdown_vs_perfect());
        util[st.name].add(rep.average_utilization());
        const TraceSummary sum =
            summarize_trace(sink.events(), s.p * s.q, rep.total_time);
        min_util[st.name].add(min_utilization(sum));
        idle_frac[st.name].add(mean_idle_fraction(sum));
      }
    }
    const std::string grid_name =
        std::to_string(s.p) + "x" + std::to_string(s.q);
    for (const char* name :
         {"block-cyclic", "kalinov-lastovetsky", "heuristic",
          "heuristic-contig", "exact"}) {
      auto it = slowdown.find(name);
      if (it == slowdown.end()) continue;
      table.row({grid_name, name, Table::num(it->second.mean(), 3),
                 Table::num(it->second.ci95_halfwidth(), 3),
                 Table::num(util[name].mean(), 3),
                 Table::num(min_util[name].mean(), 3),
                 Table::num(idle_frac[name].mean(), 3)});
    }
  }
  bench::emit(table, cli);
  return 0;
}
