// Tests for the Cholesky factorization kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "kernel_dispatch.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/norms.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  fill_spd(a.view(), rng);
  return a;
}

TEST(Cholesky, FactorsKnown2x2) {
  // A = [4 2; 2 5] = L L^T with L = [2 0; 1 2].
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 5.0;
  ASSERT_TRUE(cholesky_factor_unblocked(a.view()));
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_FALSE(cholesky_factor_unblocked(a.view()));
}

TEST(Cholesky, FillSpdProducesFactorableMatrices) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(12, 12);
    fill_spd(a.view(), rng);
    Matrix copy(12, 12);
    copy.view().copy_from(a.view());
    EXPECT_TRUE(cholesky_factor_unblocked(copy.view())) << trial;
  }
}

class CholeskyBlockedSizes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CholeskyBlockedSizes, ReconstructsOriginal) {
  const auto [n, block] = GetParam();
  const Matrix orig = random_spd(static_cast<std::size_t>(n),
                                 static_cast<std::uint64_t>(n * 13 + block));
  Matrix a(orig.rows(), orig.cols());
  a.view().copy_from(orig.view());
  ASSERT_TRUE(
      cholesky_factor_blocked(a.view(), static_cast<std::size_t>(block)));
  const Matrix rec = cholesky_reconstruct(a.view());
  EXPECT_LT(max_abs_diff(rec.view(), orig.view()) / norm_max(orig.view()),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, CholeskyBlockedSizes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(6, 2),
                      std::make_tuple(16, 4), std::make_tuple(25, 8),
                      std::make_tuple(32, 32), std::make_tuple(30, 7)));

TEST(Cholesky, BlockedMatchesUnblockedFactors) {
  const Matrix orig = random_spd(20, 41);
  Matrix a1(20, 20), a2(20, 20);
  a1.view().copy_from(orig.view());
  a2.view().copy_from(orig.view());
  ASSERT_TRUE(cholesky_factor_unblocked(a1.view()));
  ASSERT_TRUE(cholesky_factor_blocked(a2.view(), 5));
  // Compare lower triangles only.
  for (std::size_t j = 0; j < 20; ++j)
    for (std::size_t i = j; i < 20; ++i)
      EXPECT_NEAR(a1(i, j), a2(i, j), 1e-10) << i << "," << j;
}

TEST(Cholesky, SolveRecoversSolution) {
  const std::size_t n = 24;
  const Matrix a = random_spd(n, 43);
  Rng rng(44);
  Matrix x_true(n, 3);
  fill_random(x_true.view(), rng);
  Matrix b(n, 3, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());

  Matrix l(n, n);
  l.view().copy_from(a.view());
  ASSERT_TRUE(cholesky_factor_blocked(l.view(), 6));
  cholesky_solve(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b.view(), x_true.view()), 1e-9);
}

TEST(TrsmRightLowerTransposed, InvertsMultiplication) {
  Rng rng(45);
  const std::size_t n = 9, m = 4;
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    l(i, i) = 1.5 + rng.uniform();
    for (std::size_t j = 0; j < i; ++j) l(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix x(m, n);
  fill_random(x.view(), rng);
  // b = x * L^T.
  Matrix b(m, n, 0.0);
  gemm(Trans::No, Trans::Yes, 1.0, x.view(), l.view(), 0.0, b.view());
  trsm_right_lower_transposed(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-10);
}

TEST(Cholesky, UpperTriangleLeftUntouchedByUnblocked) {
  Matrix a = random_spd(8, 47);
  Matrix orig(8, 8);
  orig.view().copy_from(a.view());
  ASSERT_TRUE(cholesky_factor_unblocked(a.view()));
  for (std::size_t j = 1; j < 8; ++j)
    for (std::size_t i = 0; i < j; ++i)
      EXPECT_DOUBLE_EQ(a(i, j), orig(i, j));
}

// The row-wise loops cholesky_factor_unblocked ran before it moved onto
// the kernel's column primitives: the bit reference for that move.
bool cholesky_plain_loops(MatrixView a) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    double d = a(k, k);
    for (std::size_t p = 0; p < k; ++p) d -= a(k, p) * a(k, p);
    if (d <= 0.0) return false;
    const double lkk = std::sqrt(d);
    a(k, k) = lkk;
    for (std::size_t i = k + 1; i < n; ++i) {
      double x = a(i, k);
      for (std::size_t p = 0; p < k; ++p) x -= a(i, p) * a(k, p);
      a(i, k) = x / lkk;
    }
  }
  return true;
}

TEST(Cholesky, UnblockedColumnPrimitivesMatchPlainLoopsBitForBit) {
  // The unblocked factor builds each column with the dispatched kernel's
  // saxpy and col_div. On every kernel the host accepts it must reproduce
  // the plain loops bit for bit: on contiguous and strided views (ld = n,
  // n + 3, and 2048 as for a block of an n = 2048 matrix, the NaN rows
  // around it untouched), at sizes that reach every vector tail, and on a
  // non-SPD input, which must fail at the same column with the same
  // partial bits.
  KernelGuard guard;
  const auto same = [](const Matrix& x, const Matrix& y) {
    return std::memcmp(x.data(), y.data(),
                       x.rows() * x.cols() * sizeof(double)) == 0;
  };
  for (const std::string& name : accepted_kernels()) {
    ASSERT_TRUE(gemm_force_kernel(name));
    for (const std::size_t n : {1, 2, 3, 7, 8, 9, 16, 17, 33, 64, 65, 130}) {
      for (const std::size_t ld : {n, n + 3, std::size_t{2048}}) {
        for (const bool spd : {true, false}) {
          SCOPED_TRACE(testing::Message() << name << " n=" << n << " ld="
                                          << ld << " spd=" << spd);
          Matrix input = random_spd(n, 300 + n);
          if (!spd) input(n / 2, n / 2) = -1.0;
          Matrix want(ld, n, std::nan("")), got = want;
          want.block(ld - n, 0, n, n).copy_from(input.view());
          got.block(ld - n, 0, n, n).copy_from(input.view());
          EXPECT_EQ(cholesky_plain_loops(want.block(ld - n, 0, n, n)), spd);
          EXPECT_EQ(cholesky_factor_unblocked(got.block(ld - n, 0, n, n)),
                    spd);
          EXPECT_TRUE(same(want, got));
        }
      }
    }
  }
}

}  // namespace
}  // namespace hetgrid
