#include "matrix/trsm.hpp"

#include <algorithm>

#include "matrix/gemm.hpp"
#include "matrix/gemm_kernel.hpp"

namespace hetgrid {

namespace {

using detail::GemmKernel;

// Diagonal-block size of the blocked solves. Fixed (not tied to the gemm
// kernel's blocking) so the tail-update gemm call shapes — and with them the
// gemm metric fingerprints — are a property of the problem size alone.
constexpr std::size_t kTrsmBlock = 64;

// All four solves are blocked the same way: a right-looking head solve on a
// kTrsmBlock-wide slice of the triangle (the dispatched kernel's saxpy and
// col_div column primitives), then one gemm-shaped rank-k update that
// pushes the solved slice into the rest of B through the gemm microkernel.
//
// Bit-identity with the historical unblocked solves: for every B element the
// subtraction chain still runs in ascending p order — earlier slices arrive
// via the tail gemms (whose packed path applies p ascending per element,
// with the -1 alpha folded into the pack), the in-slice terms via the
// p-ascending head, whose saxpy takes the coefficient negated — and the
// diagonal divide still comes last. Either way x + b*(-coef) rounds exactly
// like x - b*coef. trsm_left_lower_unit, trsm_right_upper and
// trsm_right_lower_transposed are therefore bit-identical to their
// *_reference forms (asserted in tests). trsm_left_upper is the exception:
// the blocked form substitutes bottom slice first and descends within a
// slice, a different (deterministic) summation order than the reference's
// ascending-p row sweep, so its tests compare with tolerance.

void check_diag_nonzero(const ConstMatrixView& t, const char* what) {
  for (std::size_t j = 0; j < t.rows(); ++j)
    HG_CHECK(t(j, j) != 0.0, "singular " << what << " at diagonal " << j);
}

}  // namespace

void trsm_left_lower_unit(const ConstMatrixView& l, MatrixView b) {
  const std::size_t n = l.rows();
  HG_CHECK(l.cols() == n, "L must be square");
  HG_CHECK(b.rows() == n, "rhs rows " << b.rows() << " != " << n);
  const GemmKernel& kern = detail::active_kernel();
  for (std::size_t k0 = 0; k0 < n; k0 += kTrsmBlock) {
    const std::size_t k1 = std::min(k0 + kTrsmBlock, n);
    // Head: forward substitution inside the diagonal block. Row p of the
    // slice is final as soon as the rows above it have been applied (unit
    // diagonal: no divide), and the saxpy pushes it down the block column.
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double* bcol = b.data() + j * b.ld();
      for (std::size_t p = k0; p < k1; ++p)
        kern.saxpy(bcol + p + 1, l.data() + (p + 1) + p * l.ld(), -bcol[p],
                   k1 - p - 1);
    }
    // Tail: B2 -= L21 * B1 through the gemm microkernel.
    if (k1 < n)
      gemm(Trans::No, Trans::No, -1.0, l.block(k1, k0, n - k1, k1 - k0),
           b.block(k0, 0, k1 - k0, b.cols()), 1.0,
           b.block(k1, 0, n - k1, b.cols()));
  }
}

void trsm_left_upper(const ConstMatrixView& u, MatrixView b) {
  const std::size_t n = u.rows();
  HG_CHECK(u.cols() == n, "U must be square");
  HG_CHECK(b.rows() == n, "rhs rows " << b.rows() << " != " << n);
  check_diag_nonzero(u, "U");
  const GemmKernel& kern = detail::active_kernel();
  const std::size_t nblocks = (n + kTrsmBlock - 1) / kTrsmBlock;
  for (std::size_t kb = nblocks; kb > 0; --kb) {
    const std::size_t k0 = (kb - 1) * kTrsmBlock;
    const std::size_t k1 = std::min(k0 + kTrsmBlock, n);
    // Head: back substitution inside the diagonal block, bottom row up;
    // each solved row is pushed up the block column by the saxpy.
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double* bcol = b.data() + j * b.ld();
      for (std::size_t pp = k1; pp > k0; --pp) {
        const std::size_t p = pp - 1;
        bcol[p] /= u(p, p);
        kern.saxpy(bcol + k0, u.data() + k0 + p * u.ld(), -bcol[p], p - k0);
      }
    }
    // Tail: B0 -= U01 * B1 for everything above the slice.
    if (k0 > 0)
      gemm(Trans::No, Trans::No, -1.0, u.block(0, k0, k0, k1 - k0),
           b.block(k0, 0, k1 - k0, b.cols()), 1.0,
           b.block(0, 0, k0, b.cols()));
  }
}

void trsm_right_upper(const ConstMatrixView& u, MatrixView b) {
  const std::size_t n = u.rows();
  HG_CHECK(u.cols() == n, "U must be square");
  HG_CHECK(b.cols() == n, "rhs cols " << b.cols() << " != " << n);
  check_diag_nonzero(u, "U");
  const GemmKernel& kern = detail::active_kernel();
  const std::size_t m = b.rows();
  for (std::size_t j0 = 0; j0 < n; j0 += kTrsmBlock) {
    const std::size_t j1 = std::min(j0 + kTrsmBlock, n);
    // Head: solve the block's columns left to right — subtract the already
    // solved in-block columns, then the whole-column diagonal divide.
    for (std::size_t j = j0; j < j1; ++j) {
      double* bj = b.data() + j * b.ld();
      for (std::size_t p = j0; p < j; ++p)
        kern.saxpy(bj, b.data() + p * b.ld(), -u(p, j), m);
      kern.col_div(bj, u(j, j), m);
    }
    // Tail: B(:, j1:) -= B(:, j0:j1) * U(j0:j1, j1:).
    if (j1 < n)
      gemm(Trans::No, Trans::No, -1.0, b.block(0, j0, m, j1 - j0),
           u.block(j0, j1, j1 - j0, n - j1), 1.0,
           b.block(0, j1, m, n - j1));
  }
}

void trsm_right_lower_transposed(const ConstMatrixView& l, MatrixView b) {
  const std::size_t n = l.rows();
  HG_CHECK(l.cols() == n, "L must be square");
  HG_CHECK(b.cols() == n, "rhs cols " << b.cols() << " != " << n);
  check_diag_nonzero(l, "L");
  const GemmKernel& kern = detail::active_kernel();
  const std::size_t m = b.rows();
  for (std::size_t j0 = 0; j0 < n; j0 += kTrsmBlock) {
    const std::size_t j1 = std::min(j0 + kTrsmBlock, n);
    // Head: same sweep as trsm_right_upper with the coefficient read from
    // the transposed triangle, l(j, p).
    for (std::size_t j = j0; j < j1; ++j) {
      double* bj = b.data() + j * b.ld();
      for (std::size_t p = j0; p < j; ++p)
        kern.saxpy(bj, b.data() + p * b.ld(), -l(j, p), m);
      kern.col_div(bj, l(j, j), m);
    }
    // Tail: B(:, j1:) -= B(:, j0:j1) * L(j1:, j0:j1)^T — the transpose is
    // handled by the gemm pack, so this runs the same microkernel too.
    if (j1 < n)
      gemm(Trans::No, Trans::Yes, -1.0, b.block(0, j0, m, j1 - j0),
           l.block(j1, j0, n - j1, j1 - j0), 1.0,
           b.block(0, j1, m, n - j1));
  }
}

const char* trsm_kernel_name() { return detail::active_kernel().name; }

// ---- Reference (historical unblocked) solves -------------------------------

void trsm_left_lower_unit_reference(const ConstMatrixView& l, MatrixView b) {
  const std::size_t n = l.rows();
  HG_CHECK(l.cols() == n, "L must be square");
  HG_CHECK(b.rows() == n, "rhs rows " << b.rows() << " != " << n);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double x = b(i, j);
      for (std::size_t p = 0; p < i; ++p) x -= l(i, p) * b(p, j);
      b(i, j) = x;  // unit diagonal: no divide
    }
  }
}

void trsm_left_upper_reference(const ConstMatrixView& u, MatrixView b) {
  const std::size_t n = u.rows();
  HG_CHECK(u.cols() == n, "U must be square");
  HG_CHECK(b.rows() == n, "rhs rows " << b.rows() << " != " << n);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t ii = n; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      double x = b(i, j);
      for (std::size_t p = i + 1; p < n; ++p) x -= u(i, p) * b(p, j);
      HG_CHECK(u(i, i) != 0.0, "singular U at diagonal " << i);
      b(i, j) = x / u(i, i);
    }
  }
}

void trsm_right_upper_reference(const ConstMatrixView& u, MatrixView b) {
  const std::size_t n = u.rows();
  HG_CHECK(u.cols() == n, "U must be square");
  HG_CHECK(b.cols() == n, "rhs cols " << b.cols() << " != " << n);
  for (std::size_t j = 0; j < n; ++j) {
    HG_CHECK(u(j, j) != 0.0, "singular U at diagonal " << j);
    for (std::size_t i = 0; i < b.rows(); ++i) {
      double x = b(i, j);
      for (std::size_t p = 0; p < j; ++p) x -= b(i, p) * u(p, j);
      b(i, j) = x / u(j, j);
    }
  }
}

void trsm_right_lower_transposed_reference(const ConstMatrixView& l,
                                           MatrixView b) {
  const std::size_t n = l.rows();
  HG_CHECK(l.cols() == n, "L must be square");
  HG_CHECK(b.cols() == n, "rhs cols " << b.cols() << " != " << n);
  // Solve X * L^T = B, i.e. for each row of B: x_j = (b_j - sum_{p<j}
  // x_p * L(j,p)) / L(j,j), sweeping columns left to right.
  for (std::size_t j = 0; j < n; ++j) {
    HG_CHECK(l(j, j) != 0.0, "singular L at diagonal " << j);
    for (std::size_t i = 0; i < b.rows(); ++i) {
      double x = b(i, j);
      for (std::size_t p = 0; p < j; ++p) x -= b(i, p) * l(j, p);
      b(i, j) = x / l(j, j);
    }
  }
}

}  // namespace hetgrid
