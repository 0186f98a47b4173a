// google-benchmark microbenchmarks for the solver and kernel components:
// cost scaling of the heuristic (the paper claims roughly O(n^3) flops per
// step for n^2 processors), the exponential exact solver, the SVD kernels,
// the spanning-tree enumerator, and the blocked GEMM.
#include <benchmark/benchmark.h>

#include "core/arrangement.hpp"
#include "core/exact2x2.hpp"
#include "core/exact_solver.hpp"
#include "core/heuristic.hpp"
#include "core/local_search.hpp"
#include "graph/spanning_tree.hpp"
#include "matrix/gemm.hpp"
#include "svd/svd.hpp"
#include "util/rng.hpp"

namespace {

using namespace hetgrid;

void BM_HeuristicSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const std::vector<double> pool = rng.cycle_times(n * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_heuristic(n, n, pool));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_HeuristicSolve)->DenseRange(2, 12, 2)->Complexity();

void BM_HeuristicSingleStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const CycleTimeGrid grid =
      CycleTimeGrid::sorted_row_major(n, n, rng.cycle_times(n * n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic_allocation(grid));
  }
}
BENCHMARK(BM_HeuristicSingleStep)->DenseRange(2, 16, 2);

// Args: {p, q, prune}. prune=1 is the default branch-and-bound; prune=0
// degenerates to the exhaustive enumeration. One grid is searched serially.
void BM_ExactSolver(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto q = static_cast<std::size_t>(state.range(1));
  ExactSolverOptions opts;
  opts.prune = state.range(2) != 0;
  Rng rng(3);
  const CycleTimeGrid grid =
      CycleTimeGrid::sorted_row_major(p, q, rng.cycle_times(p * q));
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const ExactSolution sol = solve_exact(grid, opts);
    nodes = sol.nodes_visited;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["trees"] =
      static_cast<double>(spanning_tree_count(p, q));
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_ExactSolver)
    ->Args({2, 2, 1})
    ->Args({2, 3, 1})
    ->Args({3, 3, 1})
    ->Args({3, 4, 1})
    ->Args({4, 4, 1})
    ->Args({4, 4, 0})
    ->Args({5, 5, 1});

// Args: {p, q, threads}. Threads take fixed blocks of 64 arrangements, so
// 3x3 (42 arrangements) stays on the calling thread and 3x4 (462) splits.
void BM_OptimalArrangement(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto q = static_cast<std::size_t>(state.range(1));
  ExactSolverOptions opts;
  opts.threads = static_cast<unsigned>(state.range(2));
  Rng rng(4);
  const std::vector<double> pool = rng.cycle_times(p * q);
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const OptimalArrangement opt = solve_optimal_arrangement(p, q, pool, opts);
    nodes = opt.totals.nodes_visited;
    benchmark::DoNotOptimize(opt);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_OptimalArrangement)
    ->Args({2, 2, 1})
    ->Args({2, 3, 1})
    ->Args({3, 3, 1})
    ->Args({3, 3, 4})
    ->Args({3, 4, 1})
    ->Args({3, 4, 4});

void BM_LocalSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const std::vector<double> pool = rng.cycle_times(n * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_local_search(n, n, pool));
  }
}
BENCHMARK(BM_LocalSearch)->DenseRange(2, 6, 1);

void BM_Exact2x2ClosedForm(benchmark::State& state) {
  Rng rng(9);
  const CycleTimeGrid grid(2, 2, rng.cycle_times(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_exact_2x2(grid));
  }
}
BENCHMARK(BM_Exact2x2ClosedForm);

void BM_SpanningTreeEnumeration(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto q = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    std::uint64_t count = enumerate_spanning_trees(
        p, q, [](const std::vector<BipartiteEdge>&) { return true; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SpanningTreeEnumeration)->Args({3, 3})->Args({4, 4})->Args({4, 5});

void BM_DominantTriplet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  Matrix m(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) m(i, j) = 0.1 + rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dominant_triplet(m.view()));
  }
}
BENCHMARK(BM_DominantTriplet)->DenseRange(4, 32, 4);

void BM_JacobiSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  Matrix m(n, n);
  fill_random(m.view(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jacobi_svd(m.view()));
  }
}
BENCHMARK(BM_JacobiSvd)->DenseRange(4, 16, 4);

void BM_BlockedGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix a(n, n), b(n, n), c(n, n, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_BlockedGemm)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
