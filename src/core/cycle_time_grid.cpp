#include "core/cycle_time_grid.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace hetgrid {

std::string cycle_time_error(const std::vector<double>& times) {
  double sum = 0.0, inv_sum = 0.0;
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (double t : times) {
    if (!(t > 0.0) || !std::isfinite(t) || !std::isfinite(1.0 / t)) {
      std::ostringstream oss;
      oss << "cycle-times and their inverses must be positive and finite, "
             "got "
          << t;
      return oss.str();
    }
    sum += t;
    inv_sum += 1.0 / t;
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (!std::isfinite(sum) || !std::isfinite(inv_sum))
    return "the sum of the cycle-times or of their inverses overflows";
  if (!times.empty() && !std::isfinite(hi / lo))
    return "the cycle-time spread max/min overflows";
  return {};
}

CycleTimeGrid::CycleTimeGrid(std::size_t p, std::size_t q,
                             std::vector<double> row_major)
    : p_(p), q_(q), t_(std::move(row_major)) {
  HG_CHECK(p > 0 && q > 0, "grid dimensions must be positive");
  HG_CHECK(t_.size() == p * q,
           "expected " << p * q << " cycle-times, got " << t_.size());
  const std::string err = cycle_time_error(t_);
  HG_CHECK(err.empty(), err);
}

CycleTimeGrid CycleTimeGrid::from_arrangement(
    std::size_t p, std::size_t q, const std::vector<double>& pool,
    const std::vector<std::size_t>& perm) {
  HG_CHECK(pool.size() == p * q,
           "pool size " << pool.size() << " != " << p * q);
  HG_CHECK(perm.size() == p * q, "perm size mismatch");
  std::vector<bool> seen(perm.size(), false);
  std::vector<double> t(perm.size());
  for (std::size_t pos = 0; pos < perm.size(); ++pos) {
    HG_CHECK(perm[pos] < pool.size() && !seen[perm[pos]],
             "perm is not a permutation");
    seen[perm[pos]] = true;
    t[pos] = pool[perm[pos]];
  }
  return CycleTimeGrid(p, q, std::move(t));
}

CycleTimeGrid CycleTimeGrid::sorted_row_major(std::size_t p, std::size_t q,
                                              std::vector<double> pool) {
  std::sort(pool.begin(), pool.end());
  return CycleTimeGrid(p, q, std::move(pool));
}

bool CycleTimeGrid::is_non_decreasing() const {
  for (std::size_t i = 0; i < p_; ++i)
    for (std::size_t j = 0; j + 1 < q_; ++j)
      if ((*this)(i, j) > (*this)(i, j + 1)) return false;
  for (std::size_t j = 0; j < q_; ++j)
    for (std::size_t i = 0; i + 1 < p_; ++i)
      if ((*this)(i, j) > (*this)(i + 1, j)) return false;
  return true;
}

bool CycleTimeGrid::is_rank_one(double tol) const {
  // All 2x2 minors against the first row/column vanish iff rank <= 1.
  for (std::size_t i = 1; i < p_; ++i)
    for (std::size_t j = 1; j < q_; ++j) {
      const double det =
          (*this)(0, 0) * (*this)(i, j) - (*this)(0, j) * (*this)(i, 0);
      const double scale = std::abs((*this)(0, 0) * (*this)(i, j)) +
                           std::abs((*this)(0, j) * (*this)(i, 0));
      if (std::abs(det) > tol * scale) return false;
    }
  return true;
}

std::vector<double> CycleTimeGrid::inverse_row_major() const {
  std::vector<double> inv(t_.size());
  for (std::size_t k = 0; k < t_.size(); ++k) inv[k] = 1.0 / t_[k];
  return inv;
}

double CycleTimeGrid::total_capacity() const {
  double acc = 0.0;
  for (double v : t_) acc += 1.0 / v;
  return acc;
}

std::string CycleTimeGrid::to_string(int precision) const {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision);
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = 0; j < q_; ++j)
      oss << (j == 0 ? "" : " ") << (*this)(i, j);
    oss << '\n';
  }
  return oss.str();
}

}  // namespace hetgrid
