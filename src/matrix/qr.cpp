#include "matrix/qr.hpp"

#include <algorithm>
#include <cmath>

#include "matrix/gemm.hpp"
#include "matrix/trsm.hpp"

namespace hetgrid {

namespace {

// Panels at most this wide are the recursion's base case: the column-by-
// column Householder loop plus larft's column loop for T. Wider panels
// split their columns in half.
constexpr std::size_t kQrBaseCols = 16;

// Dot products y . x over rows [lo, m), added to `acc` in ascending r. The
// four-column form runs four such chains in one pass over the rows: each
// keeps its own single-column order (so the bits do not depend on the
// grouping), and together they hide the add latency of one chain.
double dot_rows(const double* x, const double* y, std::size_t lo,
                std::size_t m, double acc) {
  for (std::size_t r = lo; r < m; ++r) acc += y[r] * x[r];
  return acc;
}

void dot_rows4(const double* const* x, const double* y, std::size_t lo,
               std::size_t m, double* acc) {
  const double *x0 = x[0], *x1 = x[1], *x2 = x[2], *x3 = x[3];
  double s0 = acc[0], s1 = acc[1], s2 = acc[2], s3 = acc[3];
  for (std::size_t r = lo; r < m; ++r) {
    const double yr = y[r];
    s0 += yr * x0[r];
    s1 += yr * x1[r];
    s2 += yr * x2[r];
    s3 += yr * x3[r];
  }
  acc[0] = s0;
  acc[1] = s1;
  acc[2] = s2;
  acc[3] = s3;
}

// acc[c] += x_c . y over rows [lo, m) for the n columns x_0..x_{n-1}.
void dot_rows_n(const double* const* x, std::size_t n, const double* y,
                std::size_t lo, std::size_t m, double* acc) {
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) dot_rows4(x + c, y, lo, m, acc + c);
  for (; c < n; ++c) acc[c] = dot_rows(x[c], y, lo, m, acc[c]);
}

// Applies the reflector H = I - tau * v v^T (v stored in col k of `qr`
// below the diagonal, v[k] = 1 implicit — the diagonal is never read) to
// every column of `target`, rows k..m, four columns at a time.
void apply_reflector(const ConstMatrixView& qr, std::size_t k, double tau,
                     MatrixView target) {
  if (tau == 0.0) return;
  const std::size_t m = qr.rows();
  const double* v = qr.data() + k * qr.ld();
  for (std::size_t j0 = 0; j0 < target.cols(); j0 += 4) {
    const std::size_t cnt = std::min<std::size_t>(4, target.cols() - j0);
    double* c[4];
    double w[4];
    for (std::size_t q = 0; q < cnt; ++q) {
      c[q] = target.data() + (j0 + q) * target.ld();
      w[q] = c[q][k];  // w = v^T * target(k:m, j)
    }
    dot_rows_n(c, cnt, v, k + 1, m, w);
    for (std::size_t q = 0; q < cnt; ++q) {
      w[q] *= tau;
      c[q][k] -= w[q];
      for (std::size_t r = k + 1; r < m; ++r) c[q][r] -= v[r] * w[q];
    }
  }
}

// Base case of the factorization: one reflector per column (geqr2).
void factor_columns(MatrixView a, double* tau) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k.
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += a(i, k) * a(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    const double alpha = a(k, k);
    const double beta = (alpha >= 0.0) ? -norm : norm;
    const double v0 = alpha - beta;
    tau[k] = -v0 / beta;  // == (beta - alpha)/beta, in (0, 2]
    // Normalize so v[k] = 1.
    double* const col = a.data() + k * a.ld();
    for (std::size_t i = k + 1; i < m; ++i) col[i] /= v0;
    a(k, k) = beta;
    if (k + 1 < n)
      apply_reflector(a, k, tau[k], a.block(0, k + 1, m, n - (k + 1)));
  }
}

// Base case of the T build (larft, forward columnwise): column i of T is
// -tau_i * T(0:i, 0:i) * V(:, 0:i)^T v_i. `t` arrives zeroed.
void form_t_columns(const ConstMatrixView& panel, const double* tau,
                    MatrixView t) {
  const std::size_t m = panel.rows();
  const std::size_t b = panel.cols();
  // v_i is column i of the unit lower trapezoid: v_i[i] = 1, v_i[r] =
  // panel(r, i) for r > i, zero above. So V(:, 0:i)^T v_i starts at row i,
  // where v_c[i] * v_i[i] = panel(i, c) * 1.
  std::vector<double> w(b, 0.0);
  std::vector<const double*> cols(b);
  for (std::size_t c = 0; c < b; ++c) cols[c] = panel.data() + c * panel.ld();
  for (std::size_t i = 0; i < b; ++i) {
    t(i, i) = tau[i];
    if (i == 0 || tau[i] == 0.0) continue;
    // w = V(:, 0:i)^T v_i, each sum starting from +0.0 (hence 0.0 + x).
    for (std::size_t c = 0; c < i; ++c) w[c] = 0.0 + panel(i, c);
    dot_rows_n(cols.data(), i, cols[i], i + 1, m, w.data());
    // T(0:i, i) = -tau_i * T(0:i, 0:i) * w.
    for (std::size_t r = 0; r < i; ++r) {
      double acc = 0.0;
      for (std::size_t c = r; c < i; ++c) acc += t(r, c) * w[c];
      t(r, i) = -tau[i] * acc;
    }
  }
}

// The reflectors of `panel` as an explicit unit lower trapezoid.
Matrix unit_lower(const ConstMatrixView& panel) {
  Matrix v(panel.rows(), panel.cols(), 0.0);
  for (std::size_t j = 0; j < panel.cols(); ++j) {
    v(j, j) = 1.0;
    for (std::size_t i = j + 1; i < panel.rows(); ++i) v(i, j) = panel(i, j);
  }
  return v;
}

// Joins the T factors of a panel's two column halves: with T1 (n1 x n1) and
// T2 in t's diagonal blocks, fills T12 = -T1 (V1^T V2) T2. V2 is zero above
// row n1, so only V1's rows from n1 down take part.
void join_t(const ConstMatrixView& panel, std::size_t n1, MatrixView t) {
  const std::size_t m = panel.rows();
  const std::size_t n2 = panel.cols() - n1;
  const Matrix v2 = unit_lower(panel.block(n1, n1, m - n1, n2));
  Matrix x(n1, n2), y(n1, n2);
  gemm(Trans::Yes, Trans::No, 1.0, panel.block(n1, 0, m - n1, n1), v2.view(),
       0.0, x.view());
  gemm(Trans::No, Trans::No, 1.0, t.block(0, 0, n1, n1), x.view(), 0.0,
       y.view());
  gemm(Trans::No, Trans::No, -1.0, y.view(), t.block(n1, n1, n2, n2), 0.0,
       t.block(0, n1, n1, n2));
}

// Recursive QR (Elmroth & Gustavson; LAPACK geqrt3): factor the left half,
// apply its block reflector to the right half, factor the right half below
// the left's rows. `t` (n x n, zeroed) receives T when `form_t`; the left
// half's T is always built there, since the right half's update needs it.
void factor_rec(MatrixView a, double* tau, MatrixView t, bool form_t) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (n <= kQrBaseCols) {
    factor_columns(a, tau);
    if (form_t) form_t_columns(a, tau, t);
    return;
  }
  const std::size_t n1 = n / 2, n2 = n - n1;
  const MatrixView a1 = a.block(0, 0, m, n1);
  const MatrixView a2 = a.block(0, n1, m, n2);
  const MatrixView t1 = t.block(0, 0, n1, n1);
  factor_rec(a1, tau, t1, true);

  // A2 := H_{n1-1} ... H_0 A2 = (I - V1 T1^T V1^T) A2.
  const Matrix v1 = unit_lower(a1);
  Matrix w(n1, n2), tw(n1, n2);
  gemm(Trans::Yes, Trans::No, 1.0, v1.view(), a2, 0.0, w.view());
  gemm(Trans::Yes, Trans::No, 1.0, t1, w.view(), 0.0, tw.view());
  gemm(Trans::No, Trans::No, -1.0, v1.view(), tw.view(), 1.0, a2);

  factor_rec(a.block(n1, n1, m - n1, n2), tau + n1, t.block(n1, n1, n2, n2),
             form_t);
  if (form_t) join_t(a, n1, t);
}

// qr_form_t on the factorization's recursion tree: the same base case and
// join on the same columns, hence the same bits.
void form_t_rec(const ConstMatrixView& panel, const double* tau,
                MatrixView t) {
  const std::size_t m = panel.rows();
  const std::size_t b = panel.cols();
  if (b <= kQrBaseCols) {
    form_t_columns(panel, tau, t);
    return;
  }
  const std::size_t n1 = b / 2, n2 = b - n1;
  form_t_rec(panel.block(0, 0, m, n1), tau, t.block(0, 0, n1, n1));
  form_t_rec(panel.block(n1, n1, m - n1, n2), tau + n1,
             t.block(n1, n1, n2, n2));
  join_t(panel, n1, t);
}

}  // namespace

QrResult qr_factor(MatrixView a, Matrix* t) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HG_CHECK(m >= n, "qr_factor requires rows >= cols, got " << m << "x" << n);
  QrResult res;
  res.tau.assign(n, 0.0);
  Matrix local;
  Matrix& tm = t != nullptr ? *t : local;
  tm = Matrix(n, n, 0.0);
  factor_rec(a, res.tau.data(), tm.view(), t != nullptr);
  return res;
}

void qr_apply_qt(const ConstMatrixView& qr, const std::vector<double>& tau,
                 MatrixView b) {
  HG_CHECK(b.rows() == qr.rows(), "rhs shape mismatch");
  // Q^T = H_{n-1} ... H_1 H_0 applied in forward order.
  for (std::size_t k = 0; k < tau.size(); ++k)
    apply_reflector(qr, k, tau[k], b);
}

Matrix qr_form_q(const ConstMatrixView& qr, const std::vector<double>& tau) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  // Start from the first n columns of I and apply H_0 H_1 ... H_{n-1} in
  // reverse order.
  Matrix q(m, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  for (std::size_t kk = tau.size(); kk > 0; --kk)
    apply_reflector(qr, kk - 1, tau[kk - 1], q.view());
  return q;
}

Matrix qr_form_t(const ConstMatrixView& panel,
                 const std::vector<double>& tau) {
  const std::size_t b = panel.cols();
  HG_CHECK(tau.size() == b, "tau size mismatch");
  Matrix t(b, b, 0.0);
  form_t_rec(panel, tau.data(), t.view());
  return t;
}

void qr_solve(const ConstMatrixView& qr, const std::vector<double>& tau,
              MatrixView b) {
  const std::size_t n = qr.cols();
  qr_apply_qt(qr, tau, b);
  // R is the upper triangle of qr; the solve reads nothing below it.
  trsm_left_upper(qr.block(0, 0, n, n), b.block(0, 0, n, b.cols()));
}

}  // namespace hetgrid
