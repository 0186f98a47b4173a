// Distributed dense linear solve on a heterogeneous grid.
//
// Scenario: solve A x = b for a large dense system using the right-looking
// LU factorization of Section 3.2, distributed over a 2 x 2 heterogeneous
// grid with the paper's worked layout ({1,2;3,5}, panel 8x6, ABAABA column
// ordering). The factorization runs on the message-passing runtime in
// virtual time with real arithmetic; the program exits 1 unless the
// solution recovers x to the stated tolerance.
//
//   ./lu_solver [--n=192] [--block=8] [--seed=2]
#include <iostream>

#include "hetgrid.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hetgrid;
  const Cli cli(argc, argv, {{"n", "192"}, {"block", "8"}, {"seed", "2"}});
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n"));
  const std::size_t block = static_cast<std::size_t>(cli.get_int("block"));

  // The paper's running example grid.
  const CycleTimeGrid grid(2, 2, {1, 2, 3, 5});
  std::cout << "Grid (cycle-times):\n" << grid.to_string(0) << "\n";

  // Panel of Section 3.2.2: rows 6:2 contiguous, columns 4:2 interleaved.
  const PanelDistribution lu_dist = PanelDistribution::from_counts(
      {6, 2}, {4, 2}, grid, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "lu-panel");
  std::cout << "Panel column ordering: ";
  for (std::size_t g : lu_dist.col_map()) std::cout << (g == 0 ? 'A' : 'B');
  std::cout << "  (paper: ABAABA)\n\n";

  // Build a solvable system from a *general* random matrix: the
  // distributed factorization pivots partially, with row interchanges
  // travelling as messages inside each grid column, as in ScaLAPACK's
  // pdgetrf.
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  Matrix a(n, n);
  fill_random(a.view(), rng);
  Matrix x_true(n, 1);
  fill_random(x_true.view(), rng);
  Matrix rhs(n, 1, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, rhs.view());

  // Distributed pivoted factorization in virtual time.
  Matrix lu(n, n);
  lu.view().copy_from(a.view());
  const Machine machine{grid, {Topology::kSwitched, 1e-4, 2e-4, true}};
  const MpLuReport rep =
      run_mp_lu_pivoted(machine, lu_dist, lu.view(), block);
  HG_CHECK(rep.factorized, "unexpectedly singular input");

  // Pivot application + forward/backward substitution (sequential
  // postprocessing).
  lu_solve(lu.view(), rep.piv, rhs.view());
  const double err = max_abs_diff(rhs.view(), x_true.view());

  // Compare against block-cyclic for the same machine.
  Matrix lu_bc(n, n);
  lu_bc.view().copy_from(a.view());
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  const MpLuReport rep_bc = run_mp_lu_pivoted(machine, bc, lu_bc.view(), block);

  Table table("Distributed LU of a " + std::to_string(n) + "x" +
              std::to_string(n) + " system");
  table.header({"distribution", "makespan (s)", "utilization"});
  table.row({"block-cyclic", Table::num(rep_bc.makespan, 1),
             Table::num(rep_bc.average_utilization(), 3)});
  table.row({"lu-panel (ABAABA)", Table::num(rep.makespan, 1),
             Table::num(rep.average_utilization(), 3)});
  table.print(std::cout);

  const double tolerance = 1e-8;
  std::cout << "\nSolution max |x - x_true| = " << Table::num(err, 12)
            << " (tolerance " << tolerance << ")"
            << "\nSpeedup over block-cyclic: "
            << Table::num(rep_bc.makespan / rep.makespan, 2) << "x\n";
  return err < tolerance ? 0 : 1;
}
