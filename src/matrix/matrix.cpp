#include "matrix/matrix.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace hetgrid {

void MatrixView::fill(double value) const {
  for (std::size_t j = 0; j < cols_; ++j)
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = value;
}

void MatrixView::copy_from(const ConstMatrixView& src) const {
  HG_CHECK(src.rows() == rows_ && src.cols() == cols_,
           "copy_from shape mismatch: " << rows_ << "x" << cols_ << " vs "
                                        << src.rows() << "x" << src.cols());
  for (std::size_t j = 0; j < cols_; ++j)
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = src(i, j);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::uninitialized(std::size_t rows, std::size_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(rows * cols);  // DefaultInitAllocator: no element writes
  return m;
}

bool approx_equal(const ConstMatrixView& a, const ConstMatrixView& b,
                  double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      if (std::abs(a(i, j) - b(i, j)) > tol) return false;
  return true;
}

void fill_random(MatrixView m, Rng& rng) {
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      m(i, j) = rng.uniform(-1.0, 1.0);
}

void fill_diagonally_dominant(MatrixView m, Rng& rng) {
  fill_random(m, rng);
  const std::size_t n = std::min(m.rows(), m.cols());
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) row_sum += std::abs(m(i, j));
    m(i, i) = row_sum + 1.0;
  }
}

}  // namespace hetgrid
