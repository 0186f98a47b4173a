// Dense column-major matrix storage and non-owning views.
//
// hetgrid implements its own dense kernels (GEMM/LU/QR) instead of binding a
// vendor BLAS: the paper's contribution is the data *allocation*, and the
// kernels only need to be numerically correct and reasonably blocked so the
// message-passing runtime exercises realistic block operations.
//
// Layout is column-major with an explicit leading dimension (LAPACK
// convention), so that sub-matrix views alias parent storage with no copies.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "util/check.hpp"

namespace hetgrid {

namespace detail {

/// std::allocator whose value-initialization (vector::resize) leaves the
/// elements default-initialized — for doubles, unwritten. Matrix's
/// constructors still fill explicitly; only Matrix::uninitialized skips it.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace detail

class ConstMatrixView;

/// Non-owning mutable view of a column-major block: element (i,j) lives at
/// data[i + j*ld].
class MatrixView {
 public:
  MatrixView(double* data, std::size_t rows, std::size_t cols, std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    HG_DCHECK(ld >= rows || rows == 0, "leading dimension smaller than rows");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  double* data() const { return data_; }

  double& operator()(std::size_t i, std::size_t j) const {
    HG_DCHECK(i < rows_ && j < cols_,
              "index (" << i << "," << j << ") out of " << rows_ << "x"
                        << cols_);
    return data_[i + j * ld_];
  }

  /// Sub-block view of `r x c` elements starting at (i, j). Aliases storage.
  MatrixView block(std::size_t i, std::size_t j, std::size_t r,
                   std::size_t c) const {
    HG_DCHECK(i + r <= rows_ && j + c <= cols_, "block out of range");
    return MatrixView(data_ + i + j * ld_, r, c, ld_);
  }

  void fill(double value) const;
  void copy_from(const ConstMatrixView& src) const;

 private:
  double* data_;
  std::size_t rows_, cols_, ld_;
};

/// Non-owning read-only view; implicitly convertible from MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView(const double* data, std::size_t rows, std::size_t cols,
                  std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    HG_DCHECK(ld >= rows || rows == 0, "leading dimension smaller than rows");
  }

  // NOLINTNEXTLINE(google-explicit-constructor): view decay is intentional.
  ConstMatrixView(const MatrixView& m)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), ld_(m.ld()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  const double* data() const { return data_; }

  double operator()(std::size_t i, std::size_t j) const {
    HG_DCHECK(i < rows_ && j < cols_,
              "index (" << i << "," << j << ") out of " << rows_ << "x"
                        << cols_);
    return data_[i + j * ld_];
  }

  ConstMatrixView block(std::size_t i, std::size_t j, std::size_t r,
                        std::size_t c) const {
    HG_DCHECK(i + r <= rows_ && j + c <= cols_, "block out of range");
    return ConstMatrixView(data_ + i + j * ld_, r, c, ld_);
  }

 private:
  const double* data_;
  std::size_t rows_, cols_, ld_;
};

/// Owning column-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double init = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(std::size_t n);

  /// A rows x cols matrix whose elements are left unwritten, for buffers
  /// the caller overwrites in full (block copies, beta = 0 gemm outputs):
  /// skipping the zero fill saves a pass over the memory.
  static Matrix uninitialized(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return rows_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    HG_DCHECK(i < rows_ && j < cols_, "index out of range");
    return data_[i + j * rows_];
  }
  double operator()(std::size_t i, std::size_t j) const {
    HG_DCHECK(i < rows_ && j < cols_, "index out of range");
    return data_[i + j * rows_];
  }

  MatrixView view() {
    return MatrixView(data_.data(), rows_, cols_, rows_);
  }
  ConstMatrixView view() const {
    return ConstMatrixView(data_.data(), rows_, cols_, rows_);
  }
  MatrixView block(std::size_t i, std::size_t j, std::size_t r,
                   std::size_t c) {
    return view().block(i, j, r, c);
  }
  ConstMatrixView block(std::size_t i, std::size_t j, std::size_t r,
                        std::size_t c) const {
    return view().block(i, j, r, c);
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double, detail::DefaultInitAllocator<double>> data_;
};

/// Deep equality within absolute tolerance `tol` (and equal shapes).
bool approx_equal(const ConstMatrixView& a, const ConstMatrixView& b,
                  double tol);

/// Fills `m` with uniform values in [-1, 1] from a caller-owned generator
/// state (declared here to keep matrix independent of util/rng's interface).
class Rng;
void fill_random(MatrixView m, Rng& rng);

/// Fills `m` so it is diagonally dominant (LU without pivoting growth is
/// benign; handy for conditioning-sensitive tests).
void fill_diagonally_dominant(MatrixView m, Rng& rng);

}  // namespace hetgrid
