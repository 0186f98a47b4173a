// The p x q grid of processor cycle-times that every solver operates on.
//
// A *cycle-time* t_ij is the (normalized) time processor P_ij needs to
// update one r x r matrix block; smaller is faster (paper Figure 1). The
// grid may be built directly from a p x q table, or from a flat pool of n
// processors plus an arrangement (a permutation placing processor
// perm[i*q+j] at grid position (i,j)).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace hetgrid {

/// Why `times` cannot be a cycle-time pool, or "" when it can: every t and
/// 1/t must be positive and finite, and so must the sums of t and of 1/t
/// and the spread max/min — the quantities the solvers, the capacity bound
/// and the placement server's canonicalizer form from a pool.
std::string cycle_time_error(const std::vector<double>& times);

class CycleTimeGrid {
 public:
  /// Builds from row-major values; they must pass cycle_time_error().
  CycleTimeGrid(std::size_t p, std::size_t q, std::vector<double> row_major);

  /// Builds by placing `pool[perm[i*q + j]]` at position (i,j).
  /// `perm` must be a permutation of 0..p*q-1.
  static CycleTimeGrid from_arrangement(std::size_t p, std::size_t q,
                                        const std::vector<double>& pool,
                                        const std::vector<std::size_t>& perm);

  /// Canonical paper arrangement (Section 4.4.1): sort the pool ascending
  /// and fill row-major, so t_{i,j} <= t_{i,j+1} and t_{i,q} <= t_{i+1,1}.
  static CycleTimeGrid sorted_row_major(std::size_t p, std::size_t q,
                                        std::vector<double> pool);

  std::size_t rows() const { return p_; }
  std::size_t cols() const { return q_; }
  std::size_t size() const { return p_ * q_; }

  double operator()(std::size_t i, std::size_t j) const {
    HG_DCHECK(i < p_ && j < q_, "grid index out of range");
    return t_[i * q_ + j];
  }

  const std::vector<double>& row_major() const { return t_; }

  /// True if every row and every column is non-decreasing (the arrangement
  /// class Theorem 1 reduces the search to).
  bool is_non_decreasing() const;

  /// True if the matrix is (numerically) rank 1: every 2x2 minor vanishes
  /// relative to the entries involved (within `tol`). Rank-1 grids admit a
  /// perfectly balanced allocation (Section 4.3.2).
  bool is_rank_one(double tol = 1e-12) const;

  /// Element-wise inverse (the T^inv the heuristic takes the SVD of).
  std::vector<double> inverse_row_major() const;

  /// Sum of 1/t_ij over the whole grid: the aggregate compute capacity, and
  /// the denominator of the perfect-balance bound.
  double total_capacity() const;

  std::string to_string(int precision = 4) const;

  friend bool operator==(const CycleTimeGrid&, const CycleTimeGrid&) = default;

 private:
  std::size_t p_, q_;
  std::vector<double> t_;
};

}  // namespace hetgrid
