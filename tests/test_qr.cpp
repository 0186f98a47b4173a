// Tests for the Householder QR factorization and its compact-WY block
// reflector (qr_form_t). Shapes wider than 16 columns take the recursive
// (level-3) path; 16 or fewer run the column loop alone.
#include <gtest/gtest.h>

#include <cstring>

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

bool same_bits(const ConstMatrixView& a, const ConstMatrixView& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

// max|Q R - A| for a factored copy `qr` of `orig`.
double reconstruction_error(const Matrix& orig, const Matrix& qr,
                            const std::vector<double>& tau) {
  const Matrix q = qr_form_q(qr.view(), tau);
  const Matrix r = extract_r(qr);
  Matrix prod(orig.rows(), orig.cols(), 0.0);
  gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), 0.0, prod.view());
  return max_abs_diff(prod.view(), orig.view());
}

// Restores runtime kernel detection no matter how a test exits.
struct KernelGuard {
  ~KernelGuard() { gemm_force_kernel("auto"); }
};

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, QTimesRReconstructsA) {
  const auto [m, n] = GetParam();
  const Matrix orig = random_matrix(m, n, static_cast<std::uint64_t>(m * 7 + n));
  Matrix a(m, n);
  a.view().copy_from(orig.view());
  const QrResult res = qr_factor(a.view());
  EXPECT_LT(reconstruction_error(orig, a, res.tau), 1e-11);
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

// From 64 x 40 on, the columns split recursively; 130 x 33 splits 16 + 17
// and then the 17 again, and 1000 x 128 is a runtime-sized panel.
INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(5, 3),
                                           std::make_pair(10, 10),
                                           std::make_pair(40, 12),
                                           std::make_pair(33, 33),
                                           std::make_pair(64, 40),
                                           std::make_pair(130, 33),
                                           std::make_pair(96, 96),
                                           std::make_pair(1000, 128)));

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
  // qr_apply_qt's reflector loop on a tall panel. b = 48 builds T on the
  // recursion (joins of 24 = 12 + 12 column halves).
  for (const auto& [m, b] : {std::pair<std::size_t, std::size_t>{10, 4},
                             {100, 48}}) {
    Rng rng(2);
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

    // Compact WY: Q^T = I - V T^T V^T  (since Q = H_0...H_{b-1} = I - V T
    // V^T, Q^T = I - V T^T V^T).
    Matrix w(b, 2, 0.0);
    gemm(Trans::Yes, Trans::No, 1.0, v.view(), x_wy.view(), 0.0, w.view());
    Matrix y(b, 2, 0.0);
    gemm(Trans::Yes, Trans::No, 1.0, t.view(), w.view(), 0.0, y.view());
    gemm(Trans::No, Trans::No, -1.0, v.view(), y.view(), 1.0, x_wy.view());

    EXPECT_LT(max_abs_diff(x.view(), x_wy.view()), 1e-12) << "b=" << b;
  }
}

TEST(QrFormT, FactorizationTIsBitEqualToFormT) {
  // qr_factor's optional T and qr_form_t on the factored panel share the
  // base case and the join, so they agree to the bit at every width: base
  // only (4, 16), one odd split (17), and two or three levels (48, 128).
  for (const std::size_t b : {4, 16, 17, 48, 128}) {
    Matrix panel = random_matrix(2 * b + 9, b, 40 + b);
    Matrix t;
    const QrResult res = qr_factor(panel.view(), &t);
    const Matrix ref = qr_form_t(panel.view(), res.tau);
    EXPECT_TRUE(same_bits(t.view(), ref.view())) << "b=" << b;
    // Requesting T leaves V, R and tau untouched.
    Matrix plain = random_matrix(2 * b + 9, b, 40 + b);
    EXPECT_EQ(qr_factor(plain.view()).tau, res.tau) << "b=" << b;
    EXPECT_TRUE(same_bits(plain.view(), panel.view())) << "b=" << b;
  }
}

TEST(QrFormT, DegenerateColumnsInTheRightHalf) {
  // A zero column and a repeated column past the first split of a 64-wide
  // panel: the zero column's tau is 0 and so is its whole T column (T2's
  // column is zero, and the join multiplies by it), and both survive the
  // left half's block update.
  const std::size_t m = 90, b = 64, zero_col = 40, dup_col = 50;
  Matrix orig = random_matrix(m, b, 97);
  for (std::size_t i = 0; i < m; ++i) {
    orig(i, zero_col) = 0.0;
    orig(i, dup_col) = orig(i, 45);
  }
  Matrix a = orig;
  Matrix t;
  const QrResult res = qr_factor(a.view(), &t);
  EXPECT_EQ(res.tau[zero_col], 0.0);
  for (std::size_t i = 0; i < b; ++i)
    EXPECT_EQ(t(i, zero_col), 0.0) << "row " << i;
  EXPECT_LT(reconstruction_error(orig, a, res.tau), 1e-11);
  EXPECT_TRUE(same_bits(t.view(), qr_form_t(a.view(), res.tau).view()));
}

TEST(Qr, RecursivePanelBitIdenticalAcrossGemmKernels) {
  // The recursion's block updates and T joins run on gemm, which keeps
  // its bits across the dispatched microkernels; so must the whole panel.
  KernelGuard guard;
  if (!gemm_force_kernel("avx2")) GTEST_SKIP() << "host lacks AVX2";
  const Matrix orig = random_matrix(200, 64, 71);
  Matrix simd = orig, scalar = orig, t_simd, t_scalar;
  const QrResult r_simd = qr_factor(simd.view(), &t_simd);
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  const QrResult r_scalar = qr_factor(scalar.view(), &t_scalar);
  EXPECT_EQ(r_simd.tau, r_scalar.tau);
  EXPECT_TRUE(same_bits(simd.view(), scalar.view()));
  EXPECT_TRUE(same_bits(t_simd.view(), t_scalar.view()));
}

}  // namespace
}  // namespace hetgrid
