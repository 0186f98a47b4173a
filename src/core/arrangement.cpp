#include "core/arrangement.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <semaphore>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid {

namespace {

// State shared by the backtracking fillers below: the pool sorted
// ascending, which of its values are placed, and the row-major cells
// filled so far. Each distinct value grid is produced exactly once.
struct Filler {
  Filler(std::size_t rows, std::size_t cols, std::vector<double> pool,
         const std::function<bool(const CycleTimeGrid&)>& on_grid)
      : p(rows), q(cols), sorted_pool(std::move(pool)), visit(on_grid) {
    HG_CHECK(sorted_pool.size() == p * q,
             "pool size " << sorted_pool.size() << " != " << p * q);
    std::sort(sorted_pool.begin(), sorted_pool.end());
    used.assign(p * q, false);
    cell.assign(p * q, 0.0);
  }

  // True once every cell is filled; the grid is then visited.
  bool full(std::size_t pos) {
    if (pos < p * q) return false;
    ++count;
    if (!visit(CycleTimeGrid(p, q, cell))) stopped = true;
    return true;
  }

  std::size_t p, q;
  std::vector<double> sorted_pool;
  std::vector<bool> used;
  std::vector<double> cell;
  const std::function<bool(const CycleTimeGrid&)>& visit;
  std::uint64_t count = 0;
  bool stopped = false;
};

// Non-decreasing arrangements: a value placed at (i,j) must be >= the left
// and upper neighbors. It also forces every later cell right of or below
// it to hold >= v, so every unused value below v needs one of the
// (p-1-i)*j cells below and to the left; a value with more than that below
// it starts no completable prefix and is skipped.
struct NonDecreasingFiller : Filler {
  using Filler::Filler;

  void recurse(std::size_t pos) {
    if (stopped || full(pos)) return;
    const std::size_t i = pos / q, j = pos % q;
    double lower_bound = 0.0;
    if (j > 0) lower_bound = std::max(lower_bound, cell[pos - 1]);
    if (i > 0) lower_bound = std::max(lower_bound, cell[pos - q]);
    const std::size_t room = (p - 1 - i) * j;

    std::size_t below = 0;  // unused values strictly less than v
    std::size_t equal = 0;  // unused copies of v met so far
    double prev = 0.0;
    for (std::size_t k = 0; k < sorted_pool.size(); ++k) {
      if (used[k]) continue;
      const double v = sorted_pool[k];
      if (v != prev) {
        below += equal;
        equal = 0;
        prev = v;
      }
      if (equal++ > 0) continue;  // duplicate value
      if (below > room) return;   // and so for every larger value
      if (v < lower_bound) continue;
      used[k] = true;
      cell[pos] = v;
      recurse(pos + 1);
      used[k] = false;
      if (stopped) return;
    }
  }
};

// Every distinct arrangement (no ordering constraint).
struct AllFiller : Filler {
  using Filler::Filler;

  void recurse(std::size_t pos) {
    if (stopped || full(pos)) return;
    double last_tried = -1.0;
    bool tried_any = false;
    for (std::size_t k = 0; k < sorted_pool.size(); ++k) {
      if (used[k]) continue;
      const double v = sorted_pool[k];
      if (tried_any && v == last_tried) continue;
      tried_any = true;
      last_tried = v;
      used[k] = true;
      cell[pos] = v;
      recurse(pos + 1);
      used[k] = false;
      if (stopped) return;
    }
  }
};

// Arrangements are searched in fixed blocks of kBlock, in enumeration
// order; a block is the unit of work a thread takes, and each starts its
// running floor afresh. The blocks depend on the pool alone, never on the
// thread count, so no result or counter does either. 3x3 is one block.
constexpr std::size_t kBlock = 64;

// Relative slack on the floor one arrangement passes to the next: grids
// that tie in exact arithmetic (each square grid and its transposed twin)
// may differ in the last bits, and the later one must still be searched so
// that a roundoff win goes the same way as without the floor.
constexpr double kFloorSlack = 1e-9;

// Searches `grids` in order, each above the best arrangement `out` holds:
// a block's first-found best arrangement and the block's counters.
void search_block(const std::vector<CycleTimeGrid>& grids,
                  const ExactSolverOptions& opts, OptimalArrangement& out) {
  for (const CycleTimeGrid& grid : grids) {
    ExactSolution sol = solve_exact_above(
        grid, opts, out.solution.obj2 * (1.0 - kFloorSlack));
    out.totals.add(sol);
    if (sol.tree.empty()) {
      ++out.arrangements_cut;
    } else if (sol.obj2 > out.solution.obj2) {
      out.grid = grid;
      out.solution = std::move(sol);
    }
  }
}

}  // namespace

std::uint64_t enumerate_nondecreasing_arrangements(
    std::size_t p, std::size_t q, std::vector<double> pool,
    const std::function<bool(const CycleTimeGrid&)>& visit) {
  NonDecreasingFiller f(p, q, std::move(pool), visit);
  f.recurse(0);
  return f.count;
}

std::uint64_t enumerate_all_arrangements(
    std::size_t p, std::size_t q, std::vector<double> pool,
    const std::function<bool(const CycleTimeGrid&)>& visit) {
  AllFiller f(p, q, std::move(pool), visit);
  f.recurse(0);
  return f.count;
}

OptimalArrangement solve_optimal_arrangement(std::size_t p, std::size_t q,
                                             std::vector<double> pool,
                                             const ExactSolverOptions& opts) {
  // Checked once here: the searches may run on pool workers, which must
  // not throw.
  HG_CHECK(exact_solver_cost(p, q) <= opts.max_trees,
           "exact solver would search " << exact_solver_cost(p, q)
                                        << " spanning trees (cap "
                                        << opts.max_trees << ")");
  const unsigned threads = ThreadPool::resolve_threads(opts.threads);
  std::counting_semaphore<> slots(2 * threads);  // blocks queued at once
  std::deque<OptimalArrangement> results;  // stable addresses for workers
  std::vector<CycleTimeGrid> block;
  std::unique_ptr<ThreadPool> workers;
  // Searches the filled block inline, or hands it to the workers once a
  // second block is known to exist (so a single-block pool, 3x3 among
  // them, never starts a thread).
  const auto flush = [&](bool more_follow) {
    OptimalArrangement& r = results.emplace_back();
    if (threads > 1 && (workers || more_follow)) {
      if (!workers) workers = std::make_unique<ThreadPool>(threads);
      slots.acquire();
      workers->submit([&opts, &r, &slots, grids = std::move(block)] {
        search_block(grids, opts, r);
        slots.release();
      });
    } else {
      search_block(block, opts, r);
    }
    block.clear();
  };
  const std::uint64_t tried = enumerate_nondecreasing_arrangements(
      p, q, std::move(pool), [&](const CycleTimeGrid& grid) {
        if (block.size() == kBlock) flush(true);
        block.push_back(grid);
        return true;
      });
  flush(false);
  if (workers) workers->wait_idle();

  // Merge in block order with strict improvement, as within a block, so
  // the winner is the first best arrangement in enumeration order.
  OptimalArrangement best;
  for (OptimalArrangement& r : results) {
    best.arrangements_cut += r.arrangements_cut;
    best.totals.add(r.totals);
    if (r.solution.obj2 > best.solution.obj2) {
      best.grid = std::move(r.grid);
      best.solution = std::move(r.solution);
    }
  }
  HG_INTERNAL_CHECK(!best.solution.tree.empty(), "no arrangement enumerated");
  best.arrangements_tried = tried;
  best.totals.publish(tried);
  metric_count("exact.arrangements_cut", best.arrangements_cut);
  return best;
}

}  // namespace hetgrid
