// GFLOP/s harness for the local gemm microkernels (EXPERIMENTS.md §13):
// times C += A*B at sizes where the memory hierarchy actually bites
// (default n = 2048, well past every cache level) for each available
// microkernel (scalar, avx2, avx512), and reports achieved GFLOP/s (2*n^3
// flops over the best-of-reps wall clock).
//
// The dispatch contract is enforced, not just reported: every SIMD kernel's
// output matrix must match the scalar-kernel run bit for bit (the SIMD
// kernels use separate mul+add vectors — never FMA — precisely so kernel
// choice can never change a computed bit).
//
// --smoke keeps n at the full 2048 (a smaller n would measure cache
// residency, not the kernel) but drops to one rep for CI.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "matrix/gemm.hpp"
#include "matrix/norms.hpp"
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
          {{"n", "2048"}, {"reps", "3"}, {"seed", "29"}, {"smoke", "0"},
           {"csv", "0"},
           {"json", "BENCH_gemm.json"}});
  bench::print_header("Gemm microkernel throughput", cli);

  const bool smoke = cli.get_bool("smoke");
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const int reps = smoke ? 1 : static_cast<int>(cli.get_int("reps"));
  HG_CHECK(n >= 1, "--n must be positive");

  // The scalar run is the bit-identity reference, so it always runs first.
  std::vector<std::string> kernels{"scalar"};
  for (const char* simd : {"avx2", "avx512"})
    if (gemm_force_kernel(simd)) kernels.push_back(simd);
  gemm_force_kernel("auto");
  std::cout << "n = " << n << ", detected kernel: " << gemm_kernel_name()
            << " (rows for every kernel this host runs)\n\n";

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  Matrix a(n, n), b(n, n), c0(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c0.view(), rng);

  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(n) * static_cast<double>(n);

  Table table;
  table.header({"kernel", "ms", "gflops", "identical"});
  bench::JsonReport json("bench_gemm_kernel", cli);

  Matrix ref(n, n);
  Matrix c(n, n);
  for (std::size_t idx = 0; idx < kernels.size(); ++idx) {
    const std::string& kernel = kernels[idx];
    HG_CHECK(gemm_force_kernel(kernel), "kernel unavailable: " << kernel);
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      c.view().copy_from(c0.view());
      const auto t0 = std::chrono::steady_clock::now();
      gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view());
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (idx == 0) ref.view().copy_from(c.view());
    const bool identical = same_bits(c.view(), ref.view());
    HG_INTERNAL_CHECK(identical,
                      kernel << " diverged from the scalar kernel");
    const double gflops = best_ms > 0.0 ? flops / (best_ms * 1e6) : 0.0;
    table.row({kernel, Table::num(best_ms, 2), Table::num(gflops, 2),
               identical ? "yes" : "NO"});
    json.add()
        .field("kernel", kernel)
        .field("n", static_cast<double>(n))
        .field("ms", best_ms)
        .field("gflops", gflops)
        .field("identical", identical ? "yes" : "no");
  }
  gemm_force_kernel("auto");

  bench::emit(table, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
