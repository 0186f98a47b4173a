// Tests for the Householder QR factorization and its compact-WY block
// reflector (qr_form_t).
#include <gtest/gtest.h>

#include "matrix/gemm.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  fill_random(a.view(), rng);
  return a;
}

Matrix extract_r(const Matrix& qr) {
  const std::size_t n = qr.cols();
  Matrix r(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = qr(i, j);
  return r;
}

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, QTimesRReconstructsA) {
  const auto [m, n] = GetParam();
  const Matrix orig = random_matrix(m, n, static_cast<std::uint64_t>(m * 7 + n));
  Matrix a(m, n);
  a.view().copy_from(orig.view());
  const QrResult res = qr_factor(a.view());

  const Matrix q = qr_form_q(a.view(), res.tau);
  const Matrix r = extract_r(a);
  Matrix prod(m, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), 0.0, prod.view());
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()), 1e-11);
}

TEST_P(QrShapes, QHasOrthonormalColumns) {
  const auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, static_cast<std::uint64_t>(m * 13 + n));
  const QrResult res = qr_factor(a.view());
  const Matrix q = qr_form_q(a.view(), res.tau);
  Matrix qtq(n, n, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), q.view(), 0.0, qtq.view());
  EXPECT_LT(max_abs_diff(qtq.view(), Matrix::identity(n).view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(5, 3),
                                           std::make_pair(10, 10),
                                           std::make_pair(40, 12),
                                           std::make_pair(33, 33)));

TEST(Qr, RequiresTallMatrix) {
  Matrix a(2, 3, 1.0);
  EXPECT_THROW(qr_factor(a.view()), PreconditionError);
}

TEST(Qr, ApplyQtInvertsQ) {
  const std::size_t m = 15, n = 6;
  Matrix a = random_matrix(m, n, 77);
  const QrResult res = qr_factor(a.view());
  const Matrix q = qr_form_q(a.view(), res.tau);

  Rng rng(78);
  Matrix x(n, 2);
  fill_random(x.view(), rng);
  Matrix qx(m, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, q.view(), x.view(), 0.0, qx.view());
  qr_apply_qt(a.view(), res.tau, qx.view());
  // Top n rows of Q^T (Q x) must equal x.
  EXPECT_LT(max_abs_diff(qx.block(0, 0, n, 2), x.view()), 1e-12);
}

TEST(Qr, SolvesConsistentSquareSystem) {
  const std::size_t n = 20;
  Matrix a_orig = random_matrix(n, n, 31);
  Rng rng(32);
  Matrix x_true(n, 1);
  fill_random(x_true.view(), rng);
  Matrix b(n, 1, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a_orig.view(), x_true.view(), 0.0,
       b.view());

  Matrix qr(n, n);
  qr.view().copy_from(a_orig.view());
  const QrResult res = qr_factor(qr.view());
  qr_solve(qr.view(), res.tau, b.view());
  EXPECT_LT(max_abs_diff(b.block(0, 0, n, 1), x_true.view()), 1e-9);
}

TEST(Qr, LeastSquaresResidualIsOrthogonalToRange) {
  // Overdetermined system: residual r = A x - b must satisfy A^T r = 0.
  const std::size_t m = 25, n = 8;
  const Matrix a = random_matrix(m, n, 53);
  Rng rng(54);
  Matrix b(m, 1);
  fill_random(b.view(), rng);

  Matrix qr(m, n);
  qr.view().copy_from(a.view());
  const QrResult res = qr_factor(qr.view());
  Matrix rhs(m, 1);
  rhs.view().copy_from(b.view());
  qr_solve(qr.view(), res.tau, rhs.view());
  const ConstMatrixView x = rhs.block(0, 0, n, 1);

  Matrix resid(m, 1);
  resid.view().copy_from(b.view());
  gemm(Trans::No, Trans::No, 1.0, a.view(), x, -1.0, resid.view());
  // resid now holds A x - b.
  Matrix at_r(n, 1, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), resid.view(), 0.0, at_r.view());
  EXPECT_LT(norm_max(at_r.view()), 1e-10);
}

TEST(Qr, ZeroColumnGetsZeroTau) {
  Matrix a(4, 2, 0.0);
  a(0, 1) = 1.0;  // first column all zero
  const QrResult res = qr_factor(a.view());
  EXPECT_DOUBLE_EQ(res.tau[0], 0.0);
}

TEST(Qr, DiagonalOfRHasMagnitudeOfColumnNorms) {
  // For a matrix with orthogonal columns, |R_jj| equals the column norm.
  Matrix a(4, 2, 0.0);
  a(0, 0) = 3.0;
  a(1, 0) = 4.0;  // ||col0|| = 5
  a(2, 1) = 12.0;
  a(3, 1) = 5.0;  // ||col1|| = 13, orthogonal to col0
  const QrResult res = qr_factor(a.view());
  EXPECT_NEAR(std::abs(a(0, 0)), 5.0, 1e-12);
  EXPECT_NEAR(std::abs(a(1, 1)), 13.0, 1e-12);
}

// ----------------------------------------------------- block reflector T

TEST(QrFormT, SingleReflectorIsTau) {
  Rng rng(1);
  Matrix panel(6, 1);
  fill_random(panel.view(), rng);
  const QrResult res = qr_factor(panel.view());
  const Matrix t = qr_form_t(panel.view(), res.tau);
  EXPECT_DOUBLE_EQ(t(0, 0), res.tau[0]);
}

TEST(QrFormT, BlockReflectorEqualsReflectorProduct) {
  // (I - V T V^T) x must equal H_0 H_1 ... H_{b-1} x = Q^T' ... applied via
  // qr_apply_qt's reflector loop on a tall panel.
  Rng rng(2);
  const std::size_t m = 10, b = 4;
  Matrix panel(m, b);
  fill_random(panel.view(), rng);
  Matrix packed(m, b);
  packed.view().copy_from(panel.view());
  const QrResult res = qr_factor(packed.view());
  const Matrix t = qr_form_t(packed.view(), res.tau);

  // V: unit lower trapezoid.
  Matrix v(m, b, 0.0);
  for (std::size_t j = 0; j < b; ++j) {
    v(j, j) = 1.0;
    for (std::size_t i = j + 1; i < m; ++i) v(i, j) = packed(i, j);
  }

  Rng rng2(3);
  Matrix x(m, 2), x_wy(m, 2);
  fill_random(x.view(), rng2);
  x_wy.view().copy_from(x.view());

  // Reference: apply reflectors in forward order (this is Q^T x).
  qr_apply_qt(packed.view(), res.tau, x.view());

  // Compact WY: Q^T = I - V T^T V^T  (since Q = H_0...H_{b-1} = I - V T V^T,
  // Q^T = I - V T^T V^T).
  Matrix w(b, 2, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, v.view(), x_wy.view(), 0.0, w.view());
  Matrix y(b, 2, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, t.view(), w.view(), 0.0, y.view());
  gemm(Trans::No, Trans::No, -1.0, v.view(), y.view(), 1.0, x_wy.view());

  EXPECT_LT(max_abs_diff(x.view(), x_wy.view()), 1e-12);
}

}  // namespace
}  // namespace hetgrid
