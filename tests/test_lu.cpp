// Tests for the LU factorizations (unblocked, blocked right-looking,
// unpivoted) — the sequential reference kernels for the distributed runtime.
#include <gtest/gtest.h>

#include <tuple>

#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Matrix random_square(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  fill_random(m.view(), rng);
  return m;
}

double factorization_residual(const Matrix& original, const Matrix& packed,
                              const std::vector<std::size_t>& piv) {
  // || P*A - L*U ||_max relative to ||A||_max.
  Matrix pa(original.rows(), original.cols());
  pa.view().copy_from(original.view());
  lu_apply_pivots(piv, pa.view());
  const Matrix lu_prod = lu_reconstruct(packed.view(), packed.rows());
  return max_abs_diff(pa.view(), lu_prod.view()) /
         std::max(1.0, norm_max(original.view()));
}

// ----------------------------------------------------- unblocked

TEST(LuUnblocked, Factors2x2ByHand) {
  // A = [4 3; 6 3]: pivot swaps rows, L21 = 4/6, U = [6 3; 0 1].
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 3.0;
  a(1, 0) = 6.0;
  a(1, 1) = 3.0;
  const LuResult res = lu_factor_unblocked(a.view());
  EXPECT_FALSE(res.singular);
  EXPECT_EQ(res.piv[0], 1u);  // row 1 had the larger pivot
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_NEAR(a(1, 0), 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(a(1, 1), 1.0, 1e-15);
}

TEST(LuUnblocked, ResidualSmallOnRandomMatrix) {
  const Matrix orig = random_square(40, 11);
  Matrix a(40, 40);
  a.view().copy_from(orig.view());
  const LuResult res = lu_factor_unblocked(a.view());
  EXPECT_FALSE(res.singular);
  EXPECT_LT(factorization_residual(orig, a, res.piv), 1e-11);
}

TEST(LuUnblocked, DetectsSingularMatrix) {
  Matrix a(3, 3, 1.0);  // rank 1
  const LuResult res = lu_factor_unblocked(a.view());
  EXPECT_TRUE(res.singular);
}

TEST(LuUnblocked, RectangularTallMatrix) {
  Rng rng(13);
  Matrix orig(8, 5);
  fill_random(orig.view(), rng);
  Matrix a(8, 5);
  a.view().copy_from(orig.view());
  const LuResult res = lu_factor_unblocked(a.view());
  EXPECT_FALSE(res.singular);
  EXPECT_LT(factorization_residual(orig, a, res.piv), 1e-12);
}

// ----------------------------------------------------- blocked

class LuBlockedSizes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LuBlockedSizes, MatchesUnblockedResidual) {
  const auto [n, block] = GetParam();
  const Matrix orig = random_square(static_cast<std::size_t>(n),
                                    static_cast<std::uint64_t>(n * 31 + block));
  Matrix a(orig.rows(), orig.cols());
  a.view().copy_from(orig.view());
  const LuResult res =
      lu_factor_blocked(a.view(), static_cast<std::size_t>(block));
  EXPECT_FALSE(res.singular);
  EXPECT_LT(factorization_residual(orig, a, res.piv), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, LuBlockedSizes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(7, 2),
                      std::make_tuple(16, 4), std::make_tuple(33, 8),
                      std::make_tuple(64, 16), std::make_tuple(50, 64),
                      std::make_tuple(48, 7)));

TEST(LuBlocked, SameFactorsAsUnblocked) {
  // The blocked algorithm reorganizes the arithmetic but (with the same
  // pivot choices) produces the same packed factors up to roundoff.
  const Matrix orig = random_square(24, 17);
  Matrix a1(24, 24), a2(24, 24);
  a1.view().copy_from(orig.view());
  a2.view().copy_from(orig.view());
  const LuResult r1 = lu_factor_unblocked(a1.view());
  const LuResult r2 = lu_factor_blocked(a2.view(), 6);
  EXPECT_EQ(r1.piv, r2.piv);
  EXPECT_LT(max_abs_diff(a1.view(), a2.view()), 1e-11);
}

TEST(LuBlocked, RejectsZeroBlock) {
  Matrix a(4, 4, 1.0);
  EXPECT_THROW(lu_factor_blocked(a.view(), 0), PreconditionError);
}

// ----------------------------------------------------- solve

TEST(LuSolve, RecoverSolutionOfRandomSystem) {
  const std::size_t n = 30;
  const Matrix a_orig = random_square(n, 23);
  Rng rng(29);
  Matrix x_true(n, 2);
  fill_random(x_true.view(), rng);
  Matrix b(n, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a_orig.view(), x_true.view(), 0.0,
       b.view());

  Matrix lu(n, n);
  lu.view().copy_from(a_orig.view());
  const LuResult res = lu_factor_blocked(lu.view(), 8);
  lu_solve(lu.view(), res.piv, b.view());
  EXPECT_LT(max_abs_diff(b.view(), x_true.view()), 1e-9);
}

TEST(LuSolve, IdentityGivesRhs) {
  Matrix lu = Matrix::identity(5);
  const LuResult res = lu_factor_unblocked(lu.view());
  Matrix b(5, 1, 0.0);
  for (std::size_t i = 0; i < 5; ++i) b(i, 0) = static_cast<double>(i);
  Matrix expect(5, 1, 0.0);
  expect.view().copy_from(b.view());
  lu_solve(lu.view(), res.piv, b.view());
  EXPECT_LT(max_abs_diff(b.view(), expect.view()), 1e-15);
}

// ----------------------------------------------------- no-pivot

TEST(LuNoPivot, FactorsDiagonallyDominantMatrix) {
  Rng rng(41);
  Matrix orig(32, 32);
  fill_diagonally_dominant(orig.view(), rng);
  Matrix a(32, 32);
  a.view().copy_from(orig.view());
  EXPECT_TRUE(lu_factor_nopivot(a.view()));

  const Matrix prod = lu_reconstruct(a.view(), 32);
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()) /
                norm_max(orig.view()),
            1e-12);
}

TEST(LuNoPivot, FailsOnZeroLeadingPivot) {
  Matrix a(2, 2, 0.0);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  EXPECT_FALSE(lu_factor_nopivot(a.view()));
}

TEST(LuPivots, ApplyPivotsOutOfRangeThrows) {
  Matrix a(2, 2, 1.0);
  EXPECT_THROW(lu_apply_pivots({5}, a.view()), PreconditionError);
  // More pivots than rows: in-range entries, but step k >= rows would swap
  // a row that does not exist.
  EXPECT_THROW(lu_apply_pivots({0, 1, 1}, a.view()), PreconditionError);
  // lu_solve needs exactly one pivot per row of the factorization.
  Rng rng(7);
  Matrix lu(4, 4), b(4, 1, 1.0);
  fill_random(lu.view(), rng);
  const LuResult res = lu_factor_unblocked(lu.view());
  std::vector<std::size_t> oversized = res.piv;
  oversized.resize(6, 0);
  EXPECT_THROW(lu_solve(lu.view(), oversized, b.view()), PreconditionError);
  const std::vector<std::size_t> short_piv(res.piv.begin(),
                                           res.piv.begin() + 3);
  EXPECT_THROW(lu_solve(lu.view(), short_piv, b.view()), PreconditionError);
}

}  // namespace
}  // namespace hetgrid
