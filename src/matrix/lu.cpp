#include "matrix/lu.hpp"

#include <algorithm>
#include <cmath>

#include "matrix/gemm.hpp"
#include "matrix/gemm_kernel.hpp"
#include "matrix/trsm.hpp"

namespace hetgrid {

namespace {

void swap_rows(MatrixView a, std::size_t r1, std::size_t r2) {
  if (r1 == r2) return;
  for (std::size_t j = 0; j < a.cols(); ++j)
    std::swap(a(r1, j), a(r2, j));
}

}  // namespace

LuResult lu_factor_unblocked(MatrixView a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = std::min(m, n);
  LuResult res;
  res.piv.resize(steps);

  for (std::size_t k = 0; k < steps; ++k) {
    // Partial pivoting: largest |a(i,k)| for i >= k.
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < m; ++i) {
      if (std::abs(a(i, k)) > best) {
        best = std::abs(a(i, k));
        pivot = i;
      }
    }
    res.piv[k] = pivot;
    swap_rows(a, k, pivot);

    const double akk = a(k, k);
    if (akk == 0.0) {
      res.singular = true;
      continue;  // column already zero below the diagonal
    }
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) /= akk;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double akj = a(k, j);
      if (akj == 0.0) continue;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= a(i, k) * akj;
    }
  }
  return res;
}

LuResult lu_factor_blocked(MatrixView a, std::size_t block) {
  HG_CHECK(block > 0, "block size must be positive");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = std::min(m, n);
  LuResult res;
  res.piv.resize(steps);

  for (std::size_t k = 0; k < steps; k += block) {
    const std::size_t b = std::min(block, steps - k);

    // Factor the current m-k x b panel (columns k..k+b).
    MatrixView panel = a.block(k, k, m - k, b);
    LuResult pres = lu_factor_unblocked(panel);
    res.singular = res.singular || pres.singular;

    // Record pivots in global numbering and apply them to the columns left
    // and right of the panel.
    for (std::size_t i = 0; i < b; ++i) {
      const std::size_t g1 = k + i;
      const std::size_t g2 = k + pres.piv[i];
      res.piv[g1] = g2;
      if (g1 != g2) {
        if (k > 0) swap_rows(a.block(0, 0, m, k), g1, g2);
        if (k + b < n)
          swap_rows(a.block(0, k + b, m, n - (k + b)), g1, g2);
      }
    }

    if (k + b < n) {
      // U12 := inv(L11) * A12.
      ConstMatrixView l11 = a.block(k, k, b, b);
      MatrixView a12 = a.block(k, k + b, b, n - (k + b));
      trsm_left_lower_unit(l11, a12);

      if (k + b < m) {
        // Trailing update A22 -= L21 * U12 (the rank-b update the paper's
        // heterogeneous distribution load-balances).
        ConstMatrixView l21 = a.block(k + b, k, m - (k + b), b);
        ConstMatrixView u12 = a.block(k, k + b, b, n - (k + b));
        MatrixView a22 = a.block(k + b, k + b, m - (k + b), n - (k + b));
        gemm(Trans::No, Trans::No, -1.0, l21, u12, 1.0, a22);
      }
    }
  }
  return res;
}

bool lu_factor_nopivot(MatrixView a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = std::min(m, n);
  const detail::GemmKernel& kern = detail::active_kernel();
  for (std::size_t k = 0; k < steps; ++k) {
    const double akk = a(k, k);
    if (akk == 0.0) return false;
    // The multipliers, then each trailing column's update, down whole
    // columns with the kernel's primitives (y + x * (-c) rounds like
    // y - x * c).
    double* lcol = a.data() + (k + 1) + k * a.ld();
    kern.col_div(lcol, akk, m - k - 1);
    for (std::size_t j = k + 1; j < n; ++j) {
      const double akj = a(k, j);
      if (akj == 0.0) continue;
      kern.saxpy(a.data() + (k + 1) + j * a.ld(), lcol, -akj, m - k - 1);
    }
  }
  return true;
}

void lu_apply_pivots(const std::vector<std::size_t>& piv, MatrixView a) {
  HG_CHECK(piv.size() <= a.rows(), "pivot vector has " << piv.size()
                                       << " entries for " << a.rows()
                                       << " rows");
  for (std::size_t k = 0; k < piv.size(); ++k) {
    HG_CHECK(piv[k] < a.rows(), "pivot index out of range");
    swap_rows(a, k, piv[k]);
  }
}

void lu_solve(const ConstMatrixView& lu, const std::vector<std::size_t>& piv,
              MatrixView b) {
  HG_CHECK(lu.rows() == lu.cols(), "lu_solve needs a square factorization");
  HG_CHECK(b.rows() == lu.rows(), "rhs shape mismatch");
  HG_CHECK(piv.size() == lu.rows(), "pivot vector has " << piv.size()
                                        << " entries for a " << lu.rows()
                                        << "-row factorization");
  lu_apply_pivots(piv, b);
  trsm_left_lower_unit(lu, b);
  trsm_left_upper(lu, b);
}

Matrix lu_reconstruct(const ConstMatrixView& lu, std::size_t orig_rows) {
  const std::size_t m = lu.rows();
  const std::size_t n = lu.cols();
  HG_CHECK(orig_rows == m, "reconstruct shape mismatch");
  const std::size_t r = std::min(m, n);

  // L: m x r unit lower; U: r x n upper.
  Matrix l(m, r, 0.0), u(r, n, 0.0);
  for (std::size_t j = 0; j < r; ++j) {
    l(j, j) = 1.0;
    for (std::size_t i = j + 1; i < m; ++i) l(i, j) = lu(i, j);
  }
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= std::min(j, r - 1); ++i) u(i, j) = lu(i, j);

  Matrix pa(m, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, l.view(), u.view(), 0.0, pa.view());
  return pa;
}

}  // namespace hetgrid
