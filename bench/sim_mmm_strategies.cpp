// Strategy comparison for the outer-product matrix multiplication on a
// simulated heterogeneous NOW — the experiment behind the abstract's claim
// that the uniform block-cyclic distribution "limits the performance ... to
// the speed of the slowest processor" while the paper's allocation tracks
// the machine's aggregate capacity.
//
// For each grid shape, `trials` random machines (cycle-times ~ U(eps,1])
// are simulated under every strategy; the table reports the mean slowdown
// relative to the perfect-balance zero-communication bound (1.0 = optimal)
// and the mean processor utilization.
#include "bench/bench_common.hpp"
#include "obs/utilization.hpp"

int main(int argc, char** argv) {
  using namespace hetgrid;
  const Cli cli(argc, argv,
                {{"trials", "20"},
                 {"scale", "8"},
                 {"nbfactor", "8"},
                 {"seed", "7"},
                 {"network", "switched"},
                 {"csv", "0"}});
  bench::print_header("Simulated MMM on a heterogeneous NOW — strategies",
                      cli);

  const NetworkModel net = NetworkModel::named(cli.get_string("network"));
  const std::size_t scale = static_cast<std::size_t>(cli.get_int("scale"));
  const int trials = static_cast<int>(cli.get_int("trials"));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  struct Shape {
    std::size_t p, q;
    bool exact;
  };
  const Shape shapes[] = {{2, 2, true}, {2, 4, true}, {3, 3, true},
                          {4, 4, false}, {4, 6, false}};

  Table table;
  table.header({"grid", "strategy", "slowdown_vs_perfect", "ci95",
                "utilization", "comm_frac", "min_util", "idle_frac"});
  for (const Shape& s : shapes) {
    const std::size_t nb =
        static_cast<std::size_t>(cli.get_int("nbfactor")) * s.p * s.q;
    std::map<std::string, RunningStats> slowdown, util, comm_frac,
        min_util, idle_frac;
    for (int trial = 0; trial < trials; ++trial) {
      const std::vector<double> pool = rng.cycle_times(s.p * s.q);
      const auto strategies = bench::build_strategies(
          s.p, s.q, pool, scale, s.exact, PanelOrder::kContiguous);
      for (const auto& st : strategies) {
        const Machine m{st.grid, net};
        MemoryTraceSink sink;
        const SimReport rep =
            simulate_mmm(m, *st.dist, nb, KernelCosts{}, &sink);
        slowdown[st.name].add(rep.slowdown_vs_perfect());
        util[st.name].add(rep.average_utilization());
        comm_frac[st.name].add(rep.comm_time / rep.total_time);
        const TraceSummary sum =
            summarize_trace(sink.events(), s.p * s.q, rep.total_time);
        min_util[st.name].add(min_utilization(sum));
        idle_frac[st.name].add(mean_idle_fraction(sum));
      }
    }
    const std::string grid_name =
        std::to_string(s.p) + "x" + std::to_string(s.q);
    for (const char* name :
         {"block-cyclic", "kalinov-lastovetsky", "heuristic", "exact"}) {
      auto it = slowdown.find(name);
      if (it == slowdown.end()) continue;
      table.row({grid_name, name, Table::num(it->second.mean(), 3),
                 Table::num(it->second.ci95_halfwidth(), 3),
                 Table::num(util[name].mean(), 3),
                 Table::num(comm_frac[name].mean(), 3),
                 Table::num(min_util[name].mean(), 3),
                 Table::num(idle_frac[name].mean(), 3)});
    }
  }
  bench::emit(table, cli);
  return 0;
}
