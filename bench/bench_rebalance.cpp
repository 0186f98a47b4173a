// Online-rebalancing harness (EXPERIMENTS.md section 16): the planted
// mid-run straggler scenario, static plan vs panel-boundary rebalancing
// (doc/rebalance.md). A uniform 2 x 2 grid runs the kernels block-cyclic;
// grid row 0 slows down `--factor`x at step `--onset`. The static plan
// then sweeps at the stragglers' pace for the rest of the run; the
// rebalancer re-solves the allocation from the estimated rates at the
// first post-drift boundary and migrates the trailing blocks.
//
// Reported per kernel: the static and rebalanced virtual makespans, the
// makespan reduction, the distance to the imbalance report's balanced
// lower bound under the post-drift rates, the applied migrations, and the
// wall-clock cost of the rebalanced run (the only non-deterministic
// column). The harness itself enforces the acceptance bar on the MMM rows
// (both the bulk-synchronous simulator and the message-passing runtime):
// >= 25% reduction and a makespan within 15% of the balanced lower bound.
// All virtual-time columns are byte-deterministic, so CI gates them with
// --threshold=0 (tools/ci.sh).
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/lu.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/imbalance.hpp"
#include "sim/drift.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace {

using namespace hetgrid;

using Rebalance = RuntimeOptions::Rebalance;

struct ScenarioResult {
  double static_makespan = 0.0;
  double rebalanced_makespan = 0.0;
  double bound = 0.0;
  std::size_t rebalances = 0;
  std::size_t blocks = 0;
  double ms = 0.0;  // wall clock of one rebalanced run (best of reps)
};

RuntimeOptions scenario_options(Rebalance rebalance, double factor,
                                std::size_t onset) {
  RuntimeOptions opts;
  opts.rebalance = rebalance;
  opts.trace = CycleTimeTrace::straggler({0, 1}, factor, onset);
  opts.estimator.alpha = 1.0;
  opts.estimator.min_samples = 1;
  return opts;
}

using SimFn = SimReport (*)(const Machine&, const Distribution2D&,
                            std::size_t, const KernelCosts&, TraceSink*,
                            const RuntimeOptions&);

ScenarioResult run_sim(SimFn fn, const Machine& machine,
                       const Distribution2D& dist, std::size_t nb,
                       double factor, std::size_t onset, int reps) {
  ScenarioResult res;
  res.static_makespan =
      fn(machine, dist, nb, {}, nullptr,
         scenario_options(Rebalance::kOff, factor, onset))
          .total_time;
  const RuntimeOptions opts =
      scenario_options(Rebalance::kPanel, factor, onset);
  for (int r = 0; r < reps; ++r) {
    RunObservation obs(opts.estimator);
    RunObservation* prev = install_observation(&obs);
    const auto t0 = std::chrono::steady_clock::now();
    const SimReport rep = fn(machine, dist, nb, {}, nullptr, opts);
    const auto t1 = std::chrono::steady_clock::now();
    install_observation(prev);
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const std::vector<double> finish(rep.busy.size(), rep.total_time);
    const double bound =
        build_imbalance_report(obs, rep.busy, finish).lower_bound;
    if (r == 0) {
      res.rebalanced_makespan = rep.total_time;
      res.bound = bound;
      res.rebalances = rep.migrations;
      res.blocks = rep.blocks_moved;
      res.ms = ms;
    } else {
      HG_INTERNAL_CHECK(rep.total_time == res.rebalanced_makespan &&
                            rep.migrations == res.rebalances,
                        "rebalanced simulation is not deterministic");
      res.ms = std::min(res.ms, ms);
    }
  }
  return res;
}

ScenarioResult run_mp(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, std::size_t block, double factor,
                      std::size_t onset, int reps, std::uint64_t seed) {
  const std::size_t n = nb * block;
  ScenarioResult res;
  Rng rng(seed);
  Matrix a(n, n), b(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  {
    Matrix c(n, n);
    res.static_makespan =
        run_mp_mmm(machine, dist, a.view(), b.view(), c.view(), block, {},
                   nullptr, scenario_options(Rebalance::kOff, factor, onset))
            .makespan;
  }
  const RuntimeOptions opts =
      scenario_options(Rebalance::kPanel, factor, onset);
  for (int r = 0; r < reps; ++r) {
    RunObservation obs(opts.estimator);
    RunObservation* prev = install_observation(&obs);
    Matrix c(n, n);
    const auto t0 = std::chrono::steady_clock::now();
    const MpReport rep = run_mp_mmm(machine, dist, a.view(), b.view(),
                                    c.view(), block, {}, nullptr, opts);
    const auto t1 = std::chrono::steady_clock::now();
    install_observation(prev);
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double bound =
        build_imbalance_report(obs, rep.busy, rep.clock).lower_bound;
    if (r == 0) {
      res.rebalanced_makespan = rep.makespan;
      res.bound = bound;
      res.rebalances = rep.rebalances;
      res.blocks = rep.rebalance_blocks;
      res.ms = ms;
    } else {
      HG_INTERNAL_CHECK(rep.makespan == res.rebalanced_makespan &&
                            rep.rebalances == res.rebalances,
                        "rebalanced MP run is not deterministic");
      res.ms = std::min(res.ms, ms);
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetgrid;
  Cli cli(argc, argv,
          {{"nb", "32"}, {"block", "2"}, {"factor", "4"}, {"onset", "0"},
           {"reps", "3"}, {"smoke", "0"}, {"csv", "0"},
           {"json", "BENCH_rebalance.json"}});
  bench::print_header("Online rebalancing — planted straggler", cli);

  const bool smoke = cli.get_bool("smoke");
  const auto nb =
      smoke ? std::size_t{20} : static_cast<std::size_t>(cli.get_int("nb"));
  const auto block = static_cast<std::size_t>(cli.get_int("block"));
  const double factor = cli.get_double("factor");
  const auto onset = static_cast<std::size_t>(cli.get_int("onset"));
  const int reps = smoke ? 1 : static_cast<int>(cli.get_int("reps"));
  HG_CHECK(factor > 0.0, "--factor must be positive");

  const Machine machine{
      CycleTimeGrid(2, 2, std::vector<double>(4, 1.0)),
      NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4, true}};
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);

  std::cout << "uniform 2x2 grid, block-cyclic, nb = " << nb
            << "; grid row 0 slows " << factor << "x at step " << onset
            << "\n\n";

  Table table;
  table.header({"kernel", "backend", "static", "rebalanced", "gain_pct",
                "bound_ratio", "rebalances", "blocks", "ms"});
  bench::JsonReport json("bench_rebalance", cli);
  json.env("grid", "2x2-uniform");

  struct Row {
    const char* kernel;
    const char* backend;
    ScenarioResult res;
  };
  std::vector<Row> rows;
  rows.push_back({"mmm", "sim", run_sim(&simulate_mmm, machine, dist, nb,
                                        factor, onset, reps)});
  rows.push_back({"lu", "sim", run_sim(&simulate_lu, machine, dist, nb,
                                       factor, onset, reps)});
  rows.push_back({"chol", "sim", run_sim(&simulate_cholesky, machine, dist,
                                         nb, factor, onset, reps)});
  rows.push_back({"qr", "sim", run_sim(&simulate_qr, machine, dist, nb,
                                       factor, onset, reps)});
  rows.push_back(
      {"mmm", "mp", run_mp(machine, dist, nb, block, factor, onset, reps, 17)});

  for (const Row& row : rows) {
    const ScenarioResult& r = row.res;
    const double gain_pct =
        r.static_makespan > 0.0
            ? 100.0 * (1.0 - r.rebalanced_makespan / r.static_makespan)
            : 0.0;
    const double bound_ratio =
        r.bound > 0.0 ? r.rebalanced_makespan / r.bound : 0.0;
    // Every kernel must win under the planted straggler; the MMM rows
    // carry the full acceptance bar (doc/rebalance.md).
    HG_INTERNAL_CHECK(r.rebalances >= 1,
                      row.kernel << "/" << row.backend << " never rebalanced");
    HG_INTERNAL_CHECK(gain_pct > 0.0, row.kernel << "/" << row.backend
                                                 << " did not improve");
    if (std::string(row.kernel) == "mmm") {
      HG_INTERNAL_CHECK(gain_pct >= 25.0,
                        "mmm/" << row.backend
                               << " reduction below the 25% acceptance bar: "
                               << gain_pct);
      HG_INTERNAL_CHECK(bound_ratio > 0.0 && bound_ratio <= 1.15,
                        "mmm/" << row.backend
                               << " not within 15% of the balanced lower "
                                  "bound: ratio "
                               << bound_ratio);
    }
    table.row({row.kernel, row.backend, Table::num(r.static_makespan, 2),
               Table::num(r.rebalanced_makespan, 2), Table::num(gain_pct, 1),
               Table::num(bound_ratio, 3),
               std::to_string(r.rebalances), std::to_string(r.blocks),
               Table::num(r.ms, 2)});
    json.add()
        .field("kernel", row.kernel)
        .field("backend", row.backend)
        .field("nb", static_cast<double>(nb))
        .field("static_makespan", r.static_makespan)
        .field("rebalanced_makespan", r.rebalanced_makespan)
        .field("gain_pct", gain_pct)
        .field("bound_ratio", bound_ratio)
        .field("rebalances", static_cast<double>(r.rebalances))
        .field("blocks", static_cast<double>(r.blocks))
        .field("ms", r.ms);
  }

  bench::emit(table, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
