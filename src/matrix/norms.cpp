#include "matrix/norms.hpp"

#include <algorithm>
#include <cmath>

namespace hetgrid {

double norm_frobenius(const ConstMatrixView& a) {
  double acc = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) acc += a(i, j) * a(i, j);
  return std::sqrt(acc);
}

double norm_inf(const ConstMatrixView& a) {
  double best = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) row += std::abs(a(i, j));
    best = std::max(best, row);
  }
  return best;
}

double norm_max(const ConstMatrixView& a) {
  double best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      best = std::max(best, std::abs(a(i, j)));
  return best;
}

double max_abs_diff(const ConstMatrixView& a, const ConstMatrixView& b) {
  HG_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
           "max_abs_diff shape mismatch");
  double best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      best = std::max(best, std::abs(a(i, j) - b(i, j)));
  return best;
}

}  // namespace hetgrid
