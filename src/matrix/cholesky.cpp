#include "matrix/cholesky.hpp"

#include <cmath>

#include "matrix/gemm.hpp"
#include "matrix/gemm_kernel.hpp"
#include "matrix/trsm.hpp"
#include "util/rng.hpp"

namespace hetgrid {

bool cholesky_factor_unblocked(MatrixView a) {
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n, "cholesky needs a square matrix");
  const detail::GemmKernel& kern = detail::active_kernel();
  for (std::size_t k = 0; k < n; ++k) {
    double d = a(k, k);
    for (std::size_t p = 0; p < k; ++p) d -= a(k, p) * a(k, p);
    if (d <= 0.0) return false;
    const double lkk = std::sqrt(d);
    a(k, k) = lkk;
    // Column k below the diagonal, down whole columns with the kernel's
    // primitives: each a(i, k) subtracts a(i, p) * a(k, p) for ascending p
    // (y + x * (-c) rounds like y - x * c), then divides once by l_kk.
    double* col = a.data() + (k + 1) + k * a.ld();
    for (std::size_t p = 0; p < k; ++p)
      kern.saxpy(col, a.data() + (k + 1) + p * a.ld(), -a(k, p), n - k - 1);
    kern.col_div(col, lkk, n - k - 1);
  }
  return true;
}

bool cholesky_factor_blocked(MatrixView a, std::size_t block) {
  HG_CHECK(block > 0, "block size must be positive");
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n, "cholesky needs a square matrix");

  for (std::size_t k = 0; k < n; k += block) {
    const std::size_t b = std::min(block, n - k);
    MatrixView a11 = a.block(k, k, b, b);
    if (!cholesky_factor_unblocked(a11)) return false;

    if (k + b < n) {
      const std::size_t rest = n - (k + b);
      MatrixView a21 = a.block(k + b, k, rest, b);
      trsm_right_lower_transposed(a11, a21);

      // Symmetric trailing update: A22 -= L21 * L21^T (lower part only;
      // we update the full block — the upper triangle is never read).
      MatrixView a22 = a.block(k + b, k + b, rest, rest);
      gemm(Trans::No, Trans::Yes, -1.0, a21, a21, 1.0, a22);
    }
  }
  return true;
}

void cholesky_solve(const ConstMatrixView& l, MatrixView b) {
  const std::size_t n = l.rows();
  HG_CHECK(l.cols() == n && b.rows() == n, "shape mismatch");
  // Forward substitution with non-unit lower L.
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double x = b(i, j);
      for (std::size_t p = 0; p < i; ++p) x -= l(i, p) * b(p, j);
      HG_CHECK(l(i, i) != 0.0, "singular factor");
      b(i, j) = x / l(i, i);
    }
    // Back substitution with L^T.
    for (std::size_t ii = n; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      double x = b(i, j);
      for (std::size_t p = i + 1; p < n; ++p) x -= l(p, i) * b(p, j);
      b(i, j) = x / l(i, i);
    }
  }
}

Matrix cholesky_reconstruct(const ConstMatrixView& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) l(i, j) = a(i, j);
  Matrix out(n, n, 0.0);
  gemm(Trans::No, Trans::Yes, 1.0, l.view(), l.view(), 0.0, out.view());
  return out;
}

void fill_spd(MatrixView a, Rng& rng) {
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n, "fill_spd needs a square matrix");
  Matrix m(n, n);
  fill_random(m.view(), rng);
  gemm(Trans::No, Trans::Yes, 1.0, m.view(), m.view(), 0.0, a);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n);
}

}  // namespace hetgrid
