// Message-passing model study, two questions:
//
// 1. Model fidelity: how much does the bulk-synchronous simulator (global
//    barrier per phase) overestimate the makespan relative to the
//    asynchronous message-passing execution (per-processor clocks, ring
//    pipelining, broadcast/compute overlap), for each of the four kernels?
//    The *ranking* of strategies must agree between models for the BSP
//    benchmarks to be trustworthy. QR is the one kernel the two backends
//    price differently: the runtime charges the whole gathered panel at
//    the diagonal owner, the simulator each grid row's panel blocks in
//    parallel, so its ratio reads above 1.
//
// 2. The Kalinov–Lastovetsky communication penalty the paper argues from
//    Figure 3: K–L balances compute best, but its misaligned rows force
//    feeder messages beyond the grid rings. The MP runtime counts every
//    message, so the penalty becomes a number instead of an argument.
#include "bench/bench_common.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/norms.hpp"
#include "mp/mp_runtime.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace hetgrid;
  const Cli cli(argc, argv,
                {{"n", "96"},
                 {"block", "8"},
                 {"trials", "5"},
                 {"seed", "61"},
                 {"csv", "0"}});
  bench::print_header("Async message-passing vs bulk-synchronous model",
                      cli);

  const std::size_t n = static_cast<std::size_t>(cli.get_int("n"));
  const std::size_t block = static_cast<std::size_t>(cli.get_int("block"));
  const std::size_t nb = n / block;
  const int trials = static_cast<int>(cli.get_int("trials"));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const NetworkModel net{Topology::kSwitched, 1e-3, 2e-3, true};

  // --- Part 1: BSP vs async makespan per kernel and strategy, 2x2 grids.
  // A matrix's values never move a virtual makespan. Cholesky's and QR's
  // inputs come from their own generator, so the MMM and LU rows draw
  // exactly what they drew before those two kernels joined the table.
  {
    Table table("Part 1 — makespan: bulk-synchronous model vs async "
                "message-passing (2x2 grids)");
    table.header({"kernel", "strategy", "bsp_time", "mp_time", "mp/bsp",
                  "ranking_agrees"});
    struct KernelRows {
      explicit KernelRows(const char* kernel) : name(kernel) {}
      const char* name;
      RunningStats bsp_bc, mp_bc, bsp_het, mp_het;
      int agree = 0;
      void add(double s_bc, double s_ht, double p_bc, double p_ht) {
        bsp_bc.add(s_bc);
        mp_bc.add(p_bc);
        bsp_het.add(s_ht);
        mp_het.add(p_ht);
        if ((s_ht < s_bc) == (p_ht < p_bc)) ++agree;
      }
    };
    KernelRows mmm{"mmm"}, lu{"lu"}, chol{"chol"}, qr{"qr"};
    Rng fill_rng(static_cast<std::uint64_t>(cli.get_int("seed")) + 2);
    for (int t = 0; t < trials; ++t) {
      const std::vector<double> pool = rng.cycle_times(4, 0.1);
      const HeuristicResult h = solve_heuristic(2, 2, pool);
      const Machine m{h.final().grid, net};
      const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
      const PanelDistribution het = PanelDistribution::from_allocation(
          h.final().grid, h.final().alloc, nb, nb, PanelOrder::kContiguous,
          PanelOrder::kInterleaved, "heuristic");

      Matrix a(n, n), b(n, n), c(n, n);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      mmm.add(simulate_mmm(m, bc, nb).total_time,
              simulate_mmm(m, het, nb).total_time,
              run_mp_mmm(m, bc, a.view(), b.view(), c.view(), block).makespan,
              run_mp_mmm(m, het, a.view(), b.view(), c.view(), block)
                  .makespan);

      Matrix x1(n, n), x2(n, n);
      fill_diagonally_dominant(x1.view(), rng);
      x2.view().copy_from(x1.view());
      lu.add(simulate_lu(m, bc, nb).total_time,
             simulate_lu(m, het, nb).total_time,
             run_mp_lu(m, bc, x1.view(), block).makespan,
             run_mp_lu(m, het, x2.view(), block).makespan);

      fill_spd(x1.view(), fill_rng);
      x2.view().copy_from(x1.view());
      chol.add(simulate_cholesky(m, bc, nb).total_time,
               simulate_cholesky(m, het, nb).total_time,
               run_mp_cholesky(m, bc, x1.view(), block).makespan,
               run_mp_cholesky(m, het, x2.view(), block).makespan);

      fill_random(x1.view(), fill_rng);
      x2.view().copy_from(x1.view());
      qr.add(simulate_qr(m, bc, nb).total_time,
             simulate_qr(m, het, nb).total_time,
             run_mp_qr(m, bc, x1.view(), block).makespan,
             run_mp_qr(m, het, x2.view(), block).makespan);
    }
    for (const KernelRows* k : {&mmm, &lu, &chol, &qr}) {
      auto row = [&](const char* strat, const RunningStats& bsp,
                     const RunningStats& mp) {
        table.row({k->name, strat, Table::num(bsp.mean(), 1),
                   Table::num(mp.mean(), 1),
                   Table::num(mp.mean() / bsp.mean(), 3),
                   std::to_string(k->agree) + "/" + std::to_string(trials)});
      };
      row("block-cyclic", k->bsp_bc, k->mp_bc);
      row("heuristic", k->bsp_het, k->mp_het);
    }
    bench::emit(table, cli);
  }

  // --- Part 1b: lookahead ablation — deferring non-critical trailing work
  // takes the LU panel chain off the critical path.
  {
    Table table("Part 1b — LU lookahead ablation (async runtime)");
    table.header({"strategy", "no_lookahead", "lookahead", "gain_pct"});
    Rng rng2(static_cast<std::uint64_t>(cli.get_int("seed")) + 1);
    for (const char* strat : {"block-cyclic", "heuristic"}) {
      RunningStats t0, t1;
      for (int t = 0; t < trials; ++t) {
        const std::vector<double> pool = rng2.cycle_times(4, 0.1);
        const HeuristicResult h = solve_heuristic(2, 2, pool);
        const Machine m{h.final().grid, net};
        std::unique_ptr<Distribution2D> d;
        if (std::string(strat) == "block-cyclic")
          d = std::make_unique<PanelDistribution>(
              PanelDistribution::block_cyclic(2, 2));
        else
          d = std::make_unique<PanelDistribution>(
              PanelDistribution::from_allocation(
                  h.final().grid, h.final().alloc, nb, nb,
                  PanelOrder::kContiguous, PanelOrder::kInterleaved,
                  "heuristic"));
        Matrix a1(n, n), a2(n, n);
        fill_diagonally_dominant(a1.view(), rng2);
        a2.view().copy_from(a1.view());
        const KernelCosts costs;
        t0.add(run_mp_lu(m, *d, a1.view(), block, costs, false).makespan);
        t1.add(run_mp_lu(m, *d, a2.view(), block, costs, true).makespan);
      }
      table.row({strat, Table::num(t0.mean(), 1), Table::num(t1.mean(), 1),
                 Table::num(100.0 * (t0.mean() - t1.mean()) / t0.mean(), 1)});
    }
    bench::emit(table, cli);
  }

  // --- Part 2: K–L message overhead on the paper's {1,2;3,5} machine.
  {
    Table table("Part 2 — messages moved per MMM, aligned panel vs "
                "Kalinov-Lastovetsky ({1,2;3,5} machine)");
    table.header({"distribution", "messages", "blocks_moved", "makespan",
                  "aligned"});
    const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
    const Machine m{g, net};
    const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
    const std::size_t nb2 = 56;  // multiple of K-L's lcm(4,7) row period
    const std::size_t n2 = nb2 * block;

    const PanelDistribution het = PanelDistribution::from_allocation(
        h.final().grid, h.final().alloc, 28, 56, PanelOrder::kContiguous,
        PanelOrder::kContiguous, "heuristic-panel");
    const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);

    Matrix a(n2, n2), b(n2, n2), c(n2, n2);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);

    const Machine mh{h.final().grid, net};
    const MpReport r_het =
        run_mp_mmm(mh, het, a.view(), b.view(), c.view(), block);
    const MpReport r_kl =
        run_mp_mmm(m, kl, a.view(), b.view(), c.view(), block);

    auto row = [&](const char* name, const MpReport& r, bool aligned) {
      table.row({name, Table::num(static_cast<std::int64_t>(r.messages)),
                 Table::num(r.blocks_moved, 0), Table::num(r.makespan, 1),
                 aligned ? "yes" : "no"});
    };
    row("heuristic-panel", r_het, true);
    row("kalinov-lastovetsky", r_kl, false);
    bench::emit(table, cli);
    std::cout << "K-L moves "
              << Table::num(r_kl.blocks_moved / r_het.blocks_moved, 2)
              << "x the data volume of the grid-aligned panel — the price "
                 "of dropping the paper's\n4-neighbor constraint.\n";
  }
  return 0;
}
