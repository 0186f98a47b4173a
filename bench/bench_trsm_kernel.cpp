// GFLOP/s harness for the blocked triangular solve (EXPERIMENTS.md §14):
// times the LU panel solve B := inv(L) * B (trsm_left_lower_unit — unit
// lower-triangular L, n x n right-hand side) several ways: the historical
// unblocked triple-loop reference, then the blocked solve on each available
// kernel's column primitives (scalar, avx2, avx512). The blocked
// solve routes its rank-k tail updates through the packed gemm microkernel,
// which is where the speedup lives; the reference row is the "before" of
// the comparison.
//
// The bit-identity contract is enforced, not just reported: this variant's
// blocked form preserves the reference's per-element floating-point
// sequence, so every configuration's solution must match the reference run
// bit for bit — across the kernel dispatch too.
//
// --smoke keeps n at the full default (a smaller n would understate the
// blocking's cache benefit) but drops to one rep for CI.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "matrix/gemm.hpp"
#include "matrix/trsm.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace hetgrid;
  Cli cli(argc, argv,
          {{"n", "1024"}, {"nrhs", "0"}, {"reps", "3"}, {"seed", "31"},
           {"smoke", "0"}, {"csv", "0"}, {"json", "BENCH_trsm.json"}});
  bench::print_header("Blocked trsm throughput", cli);

  const bool smoke = cli.get_bool("smoke");
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto nrhs_flag = static_cast<std::size_t>(cli.get_int("nrhs"));
  const std::size_t nrhs = nrhs_flag == 0 ? n : nrhs_flag;
  const int reps = smoke ? 1 : static_cast<int>(cli.get_int("reps"));
  HG_CHECK(n >= 2, "--n must be at least 2");

  // The unblocked reference runs first: it is both the "before" of the
  // speedup and the bit-identity anchor for every blocked configuration.
  std::vector<std::string> configs{"reference", "scalar"};
  for (const char* simd : {"avx2", "avx512"})
    if (gemm_force_kernel(simd)) configs.push_back(simd);
  gemm_force_kernel("auto");
  std::cout << "n = " << n << ", nrhs = " << nrhs
            << ", detected kernel: " << trsm_kernel_name()
            << " (rows for every kernel this host runs)\n\n";

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  Matrix l(n, n, 0.0);
  fill_random(l.view(), rng);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) l(i, j) = i == j ? 1.0 : 0.0;
  // Scale the strict lower triangle down so an n-deep substitution neither
  // overflows nor drowns the signal.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i) l(i, j) /= double(n);
  Matrix b0(n, nrhs);
  fill_random(b0.view(), rng);

  // Forward substitution with a unit diagonal: row i of each right-hand
  // side takes i multiply-subtract pairs.
  const double flops = static_cast<double>(n) * static_cast<double>(n - 1) *
                       static_cast<double>(nrhs);

  Table table;
  table.header({"kernel", "n", "nrhs", "ms", "gflops", "identical"});
  bench::JsonReport json("bench_trsm_kernel", cli);

  Matrix ref(n, nrhs);
  Matrix x(n, nrhs);
  for (std::size_t idx = 0; idx < configs.size(); ++idx) {
    const std::string& cfg = configs[idx];
    const bool reference = cfg == "reference";
    if (!reference)
      HG_CHECK(gemm_force_kernel(cfg), "kernel unavailable: " << cfg);
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      x.view().copy_from(b0.view());
      const auto t0 = std::chrono::steady_clock::now();
      if (reference) {
        trsm_left_lower_unit_reference(l.view(), x.view());
      } else {
        trsm_left_lower_unit(l.view(), x.view());
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (idx == 0) ref.view().copy_from(x.view());
    const bool identical = same_bits(x.view(), ref.view());
    HG_INTERNAL_CHECK(identical,
                      cfg << " diverged from the unblocked reference solve");
    const double gflops = best_ms > 0.0 ? flops / (best_ms * 1e6) : 0.0;
    table.row({cfg, std::to_string(n), std::to_string(nrhs),
               Table::num(best_ms, 2), Table::num(gflops, 2),
               identical ? "yes" : "NO"});
    json.add()
        .field("kernel", cfg)
        .field("n", static_cast<double>(n))
        .field("nrhs", static_cast<double>(nrhs))
        .field("ms", best_ms)
        .field("gflops", gflops)
        .field("identical", identical ? "yes" : "no");
  }
  gemm_force_kernel("auto");

  bench::emit(table, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
