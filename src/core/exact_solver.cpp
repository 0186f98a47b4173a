#include "core/exact_solver.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace hetgrid {

namespace {

// Relative slack when checking the non-tree inequalities: propagation is a
// chain of multiplications, so allow a little accumulated roundoff. The
// incumbent cut uses the same slack, so a tree that beats the incumbent
// only by roundoff is still reached and a tie still goes to the first tree.
constexpr double kTol = 1e-9;

// The branch-and-bound engine: one serial depth-first walk over the whole
// decision tree, edges in row-major order, include before exclude.
//
// Partial-forest state: every vertex v carries a relative share val_[v].
// Within one union-find component with free scale x, the induced point is
// r_i = val_[i] * x and c_j = val_[p+j] / x, so the product r_i c_j of any
// same-component (row, column) pair is val-determined and scale-free. That
// yields
//   * an admissible Obj2 bound: obj2 = sum_ij r_i c_j, where same-component
//     pairs contribute their fixed product and cross-component pairs at
//     most 1/t_ij (any acceptable completion must satisfy r_i t_ij c_j <= 1);
//   * an infeasibility cut: a same-component pair with
//     val_i * val_j * t_ij > 1 + kTol violates its constraint in EVERY
//     completion, so the subtree holds no acceptable tree.
class Search {
 public:
  Search(const CycleTimeGrid& grid, bool prune, double floor)
      : p_(grid.rows()),
        q_(grid.cols()),
        n_(p_ + q_),
        needed_(n_ - 1),
        n_edges_(static_cast<std::uint32_t>(p_ * q_)),
        prune_(prune),
        t_(grid.row_major()),
        uf_(n_),
        val_(n_, 1.0),
        root_seen_(n_, 0),
        cut_(prune ? floor : 0.0),
        best_obj2_(cut_) {
    inv_t_.resize(t_.size());
    for (std::size_t k = 0; k < t_.size(); ++k) {
      inv_t_[k] = 1.0 / t_[k];
      ub_ += inv_t_[k];  // all pairs start cross-component: capacity bound
    }
    chosen_.reserve(needed_);
  }

  // Walks the whole decision tree, leaving the first-found best tree above
  // the floor in best_edges() and the work done in the counters.
  void run(ExactCounters& cnt) {
    std::vector<Frame> stack;
    stack.reserve(n_edges_ + 1);
    stack.push_back({0, 0, 0, 0, 0.0, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.stage == 0) {
        ++cnt.nodes_visited;
        if (prune_ && (viol_ > 0 || ub_ < cut_)) {
          ++cnt.subtrees_pruned;
          stack.pop_back();
          continue;
        }
        if (chosen_.size() == needed_) {
          evaluate_leaf(cnt);
          stack.pop_back();
          continue;
        }
        if (f.idx == n_edges_ ||
            chosen_.size() + (n_edges_ - f.idx) < needed_ ||
            !completable(f.idx)) {
          stack.pop_back();
          continue;
        }
        // Branch 1: include edges[idx] if it joins two components.
        f.uf_mark = uf_.checkpoint();
        f.val_mark = val_undo_.size();
        f.saved_ub = ub_;
        f.saved_viol = viol_;
        const std::size_t row = f.idx / q_, colv = p_ + f.idx % q_;
        if (uf_.find(row) != uf_.find(colv)) {
          apply_include(f.idx);
          chosen_.push_back(f.idx);
          f.stage = 1;
        } else {
          f.stage = 2;  // cycle edge: only the exclude branch exists
        }
        stack.push_back({f.idx + 1, 0, 0, 0, 0.0, 0});
        continue;
      }
      if (f.stage == 1) {
        // Back from the include branch: restore the pre-include state
        // (saved copies, never inverse arithmetic, so the state is
        // bit-identical to a fresh replay of the same decisions).
        chosen_.pop_back();
        uf_.rollback(f.uf_mark);
        while (val_undo_.size() > f.val_mark) {
          val_[val_undo_.back().vertex] = val_undo_.back().old_value;
          val_undo_.pop_back();
        }
        ub_ = f.saved_ub;
        viol_ = f.saved_viol;
        f.stage = 2;
        stack.push_back({f.idx + 1, 0, 0, 0, 0.0, 0});
        continue;
      }
      stack.pop_back();  // both branches done
    }
  }

  // Ascending edge indices of the best tree; empty if none beat the floor.
  const std::vector<std::uint32_t>& best_edges() const { return best_edges_; }

 private:
  struct ValUndo {
    std::size_t vertex;
    double old_value;
  };

  struct Frame {
    std::uint32_t idx;   // edge this node decides
    std::uint8_t stage;  // 0 fresh, 1 include explored, 2 exclude explored
    std::size_t uf_mark;
    std::size_t val_mark;
    double saved_ub;
    std::uint32_t saved_viol;
  };

  // Merges the components of edge e's endpoints (which must differ):
  // rescales the column endpoint's component so the new edge is tight,
  // then moves every newly intra-component pair from its 1/t cross bound
  // to its now-fixed product, counting constraint violations.
  void apply_include(std::uint32_t e) {
    const std::size_t row = e / q_, colv = p_ + e % q_;
    const std::size_t ra = uf_.find(row), rb = uf_.find(colv);
    HG_DCHECK(ra != rb, "apply_include on a cycle edge");
    a_members_.clear();
    b_members_.clear();
    for (std::size_t v = 0; v < n_; ++v) {
      const std::size_t r = uf_.find(v);
      if (r == ra)
        a_members_.push_back(v);
      else if (r == rb)
        b_members_.push_back(v);
    }
    const double f = val_[row] * val_[colv] * t_[e];
    for (std::size_t v : b_members_) {
      val_undo_.push_back({v, val_[v]});
      if (v < p_)
        val_[v] *= f;  // row shares scale up with the component
      else
        val_[v] /= f;  // column shares scale down
    }
    uf_.unite(row, colv);
    double ub = ub_;
    for (std::size_t i : a_members_) {
      if (i >= p_) continue;
      for (std::size_t jv : b_members_) {
        if (jv < p_) continue;
        ub += pair_fixed(i, jv);
      }
    }
    for (std::size_t i : b_members_) {
      if (i >= p_) continue;
      for (std::size_t jv : a_members_) {
        if (jv < p_) continue;
        ub += pair_fixed(i, jv);
      }
    }
    ub_ = ub;
  }

  // Pair (row i, column vertex jv) just became intra-component: its product
  // is now fixed. Returns the bound delta and counts a violation if the
  // pair's constraint can no longer hold.
  double pair_fixed(std::size_t i, std::size_t jv) {
    const std::size_t k = i * q_ + (jv - p_);
    const double prod = val_[i] * val_[jv];
    if (prod * t_[k] > 1.0 + kTol) ++viol_;
    return prod - inv_t_[k];
  }

  void evaluate_leaf(ExactCounters& cnt) {
    ++cnt.trees_enumerated;
    if (viol_ != 0) return;
    ++cnt.trees_acceptable;
    // Fix the (single) component's scale so that r_0 = 1.
    const double a0 = val_[0];
    double sum_r = 0.0, sum_c = 0.0;
    for (std::size_t i = 0; i < p_; ++i) sum_r += val_[i] / a0;
    for (std::size_t j = 0; j < q_; ++j) sum_c += val_[p_ + j] * a0;
    const double obj2 = sum_r * sum_c;
    if (obj2 > best_obj2_) {
      best_obj2_ = obj2;
      best_edges_ = chosen_;
      if (prune_) cut_ = std::max(cut_, obj2 * (1.0 - kTol));
    }
  }

  // True if the vertices can still be fully connected using the current
  // forest plus edges[idx..]. Those edges join row i = idx / q, columns
  // idx % q .. q-1 and, below row i, every remaining row with every column
  // into one connected hub, so the graph connects iff every component of
  // the forest touches the hub. Rows below i are still isolated; count the
  // distinct components of row i and the hub's columns and compare.
  bool completable(std::uint32_t idx) {
    const std::size_t i = idx / q_;
    const std::size_t first_col = i + 1 < p_ ? 0 : idx % q_;
    ++stamp_;
    std::size_t touching = p_ - 1 - i;
    const auto mark = [&](std::size_t v) {
      const std::size_t r = uf_.find(v);
      if (root_seen_[r] != stamp_) {
        root_seen_[r] = stamp_;
        ++touching;
      }
    };
    mark(i);
    for (std::size_t j = first_col; j < q_; ++j) mark(p_ + j);
    return touching == uf_.components();
  }

  const std::size_t p_, q_, n_, needed_;
  const std::uint32_t n_edges_;
  const bool prune_;
  const std::vector<double>& t_;  // row-major cycle-times
  std::vector<double> inv_t_;

  UnionFind uf_;
  std::vector<double> val_;  // rows: a_i, columns (offset p_): b_j
  std::vector<ValUndo> val_undo_;
  std::vector<std::uint32_t> chosen_;  // included edge indices, ascending
  std::vector<std::size_t> a_members_, b_members_;  // merge scratch
  std::vector<std::uint64_t> root_seen_;  // completable() scratch
  std::uint64_t stamp_ = 0;
  double ub_ = 0.0;         // admissible Obj2 upper bound for this subtree
  std::uint32_t viol_ = 0;  // intra-component constraint violations
  double cut_;              // subtrees bounded below this hold no winner
  double best_obj2_;        // a tree is kept only if it beats this
  std::vector<std::uint32_t> best_edges_;
};

}  // namespace

void ExactCounters::add(const ExactCounters& o) {
  trees_enumerated += o.trees_enumerated;
  trees_acceptable += o.trees_acceptable;
  nodes_visited += o.nodes_visited;
  subtrees_pruned += o.subtrees_pruned;
}

// The counts are deterministic, so they never perturb a byte-stable
// metrics snapshot.
void ExactCounters::publish(std::uint64_t solves) const {
  metric_count("exact.nodes_visited", nodes_visited);
  metric_count("exact.subtrees_pruned", subtrees_pruned);
  metric_count("exact.trees_enumerated", trees_enumerated);
  metric_count("exact.trees_acceptable", trees_acceptable);
  metric_count("exact.solves", solves);
}

ExactSolution solve_exact_above(const CycleTimeGrid& grid,
                                const ExactSolverOptions& opts, double floor) {
  ProfScope prof_span("exact.solve");
  const std::size_t q = grid.cols();
  const std::uint64_t n_trees = spanning_tree_count(grid.rows(), q);
  HG_CHECK(n_trees <= opts.max_trees,
           "exact solver would search " << n_trees << " spanning trees (cap "
                                        << opts.max_trees << ")");
  ExactSolution out;
  Search search(grid, opts.prune, floor);
  search.run(out);
  const std::vector<std::uint32_t>& best = search.best_edges();
  if (best.empty()) return out;

  out.tree.reserve(best.size());
  for (std::uint32_t e : best) out.tree.push_back({e / q, e % q});
  const bool spanned = propagate_tree(grid, out.tree, out.alloc);
  HG_INTERNAL_CHECK(spanned, "winning edge set does not span the grid");
  out.obj2 = obj2_value(out.alloc);
  return out;
}

ExactSolution solve_exact(const CycleTimeGrid& grid,
                          const ExactSolverOptions& opts) {
  ExactSolution out = solve_exact_above(grid, opts, 0.0);
  HG_INTERNAL_CHECK(!out.tree.empty() && out.trees_acceptable > 0,
                    "no acceptable spanning tree found; at least the "
                    "bottleneck-relaxation tree must be acceptable");
  out.publish(1);
  return out;
}

ExactSolution solve_exact(const CycleTimeGrid& grid, std::uint64_t max_trees) {
  ExactSolverOptions opts;
  opts.max_trees = max_trees;
  return solve_exact(grid, opts);
}

bool propagate_tree(const CycleTimeGrid& grid,
                    const std::vector<BipartiteEdge>& tree,
                    GridAllocation& out) {
  const std::size_t p = grid.rows(), q = grid.cols();
  out.r.assign(p, 0.0);
  out.c.assign(q, 0.0);
  // Explicit known-flags per variable: a sentinel value would make a NaN
  // (or any propagation bug) silently pass as "known".
  std::vector<std::uint8_t> r_known(p, 0), c_known(q, 0);
  out.r[0] = 1.0;
  r_known[0] = 1;
  std::size_t remaining = p + q - 1;
  bool progress = true;
  // Sweep until all p + q values are set; each sweep fixes at least one
  // value when the edges form a tree.
  while (remaining > 0 && progress) {
    progress = false;
    for (const BipartiteEdge& e : tree) {
      if (r_known[e.row] == c_known[e.col]) continue;  // both or neither
      if (r_known[e.row]) {
        out.c[e.col] = 1.0 / (out.r[e.row] * grid(e.row, e.col));
        c_known[e.col] = 1;
      } else {
        out.r[e.row] = 1.0 / (out.c[e.col] * grid(e.row, e.col));
        r_known[e.row] = 1;
      }
      --remaining;
      progress = true;
    }
  }
  return remaining == 0;
}

std::uint64_t exact_solver_cost(std::size_t p, std::size_t q) {
  return spanning_tree_count(p, q);
}

}  // namespace hetgrid
