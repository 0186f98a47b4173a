// Distributed QR factorization and least-squares polynomial fit.
//
// Scenario: fit a degree-(d-1) polynomial to noisy samples by solving
// min ||V c - y|| with a tall Vandermonde design matrix (n samples, d
// basis columns). The rectangular QR factorization runs distributed on a
// heterogeneous 2 x 3 grid on the message-passing runtime in virtual time;
// Q^T y and the triangular solve run sequentially afterwards. The program
// exits 1 unless every coefficient is recovered to 1e-2.
//
//   ./qr_least_squares [--n=240] [--block=8] [--degree=24] [--seed=5]
#include <iostream>

#include "hetgrid.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hetgrid;
  const Cli cli(argc, argv,
                {{"n", "240"}, {"block", "8"}, {"degree", "24"},
                 {"seed", "5"}});
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n"));
  const std::size_t block = static_cast<std::size_t>(cli.get_int("block"));
  const std::size_t degree = static_cast<std::size_t>(cli.get_int("degree"));
  HG_CHECK(degree < n, "--degree must be smaller than --n");

  // Tall design matrix: Chebyshev basis on [-1, 1] (well-conditioned, so
  // the fit quality reflects the factorization, not the basis).
  Matrix a(n, degree, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = -1.0 + 2.0 * static_cast<double>(i) /
                                static_cast<double>(n - 1);
    double t_prev = 1.0, t_cur = x;
    for (std::size_t j = 0; j < degree; ++j) {
      if (j == 0) {
        a(i, j) = 1.0;
      } else if (j == 1) {
        a(i, j) = x;
      } else {
        const double t_next = 2.0 * x * t_cur - t_prev;
        t_prev = t_cur;
        t_cur = t_next;
        a(i, j) = t_cur;
      }
    }
  }

  // Ground-truth coefficients and noisy observations.
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  std::vector<double> coef(degree);
  for (double& c : coef) c = rng.uniform(-2.0, 2.0);
  Matrix y(n, 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < degree; ++j) acc += coef[j] * a(i, j);
    y(i, 0) = acc + 1e-3 * rng.uniform(-1.0, 1.0);
  }

  // Heterogeneous machine + allocation.
  const std::vector<double> pool{0.15, 0.2, 0.3, 0.35, 0.5, 0.6};
  const HeuristicResult h = solve_heuristic(2, 3, pool);
  const PanelDistribution dist = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 6, 3, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "qr-panel");
  const Machine machine{h.final().grid,
                        {Topology::kSwitched, 1e-4, 2e-4, true}};

  std::cout << "Grid:\n" << h.final().grid.to_string(2) << "\n";
  std::cout << "Design matrix " << n << "x" << degree << ", block " << block
            << "\n";

  // Distributed rectangular QR in virtual time.
  const MpQrReport rep = run_mp_qr(machine, dist, a.view(), block);
  std::cout << "Distributed QR makespan: " << Table::num(rep.makespan, 1)
            << " s (virtual), utilization "
            << Table::num(rep.average_utilization(), 3) << ", "
            << rep.messages << " messages\n\n";

  // Least-squares solve from the packed factors: x = R^{-1} (Q^T y)_top.
  qr_apply_qt(a.view(), rep.tau, y.view());
  Matrix r(degree, degree, 0.0);
  for (std::size_t j = 0; j < degree; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  MatrixView top = y.block(0, 0, degree, 1);
  trsm_left_upper(r.view(), top);

  double worst = 0.0;
  for (std::size_t j = 0; j < degree; ++j)
    worst = std::max(worst, std::abs(y(j, 0) - coef[j]));

  Table table("Recovered coefficients (first 6 shown)");
  table.header({"basis fn", "true", "fit", "abs err"});
  for (std::size_t j = 0; j < std::min<std::size_t>(degree, 6); ++j) {
    table.row({"T" + std::to_string(j), Table::num(coef[j], 5),
               Table::num(y(j, 0), 5),
               Table::num(std::abs(y(j, 0) - coef[j]), 6)});
  }
  table.print(std::cout);
  std::cout << "\nMax coefficient error over all " << degree
            << " coefficients: " << Table::num(worst, 6)
            << "\n(noise level 1e-3 — the fit is noise-limited, not "
               "factorization-limited)\n";
  return worst < 1e-2 ? 0 : 1;
}
