// Tests for the blocked triangular solves (matrix/trsm.cpp): every variant
// against its historical unblocked reference — bitwise for the three solves
// whose blocked form preserves the per-element floating-point sequence,
// tolerance for trsm_left_upper whose blocked form sums in a different
// (deterministic) order — plus the dispatch contract shared with the gemm
// microkernel (every kernel matches the scalar one bit for bit), and the
// column primitives the solves take from its kernel table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "kernel_dispatch.hpp"
#include "matrix/gemm.hpp"
#include "matrix/gemm_kernel.hpp"
#include "matrix/matrix.hpp"
#include "matrix/norms.hpp"
#include "matrix/trsm.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

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

// Random well-conditioned triangular factors. The off-diagonal magnitudes
// stay in [-1, 1] while the diagonal sits near 4, so solves of the sizes
// below neither overflow nor lose all their bits.
Matrix lower_triangular(std::size_t n, bool unit_diag, std::uint64_t seed) {
  Rng rng(seed);
  Matrix l(n, n, 0.0);
  fill_random(l.view(), rng);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) l(i, j) = 0.0;  // keep lower only
    l(j, j) = unit_diag ? 1.0 : 4.0 + l(j, j);
  }
  return l;
}

Matrix upper_triangular(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix u(n, n, 0.0);
  fill_random(u.view(), rng);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i < n; ++i) u(i, j) = 0.0;
    u(j, j) = 4.0 + u(j, j);
  }
  return u;
}

Matrix random_rhs(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix b(rows, cols);
  fill_random(b.view(), rng);
  return b;
}

// Sizes straddling the 64-wide diagonal slice of the blocked solves: below,
// exactly one block, one-past, two blocks, two-plus-ragged-edge.
const std::size_t kSizes[] = {1, 5, 63, 64, 65, 128, 130};

// Right-hand-side width deliberately different from n (non-square B) and
// prime-ish so gemm tail shapes hit partial tiles.
std::size_t rhs_width(std::size_t n) { return n == 1 ? 3 : n - 1 + 7; }

// ------------------------------------------------ blocked vs reference

TEST(Trsm, LeftLowerUnitBitIdenticalToReference) {
  for (std::size_t n : kSizes) {
    const Matrix l = lower_triangular(n, /*unit_diag=*/true, 100 + n);
    Matrix b = random_rhs(n, rhs_width(n), 200 + n);
    Matrix ref = b;
    trsm_left_lower_unit(l.view(), b.view());
    trsm_left_lower_unit_reference(l.view(), ref.view());
    EXPECT_TRUE(same_bits(b.view(), ref.view())) << "n=" << n;
  }
}

TEST(Trsm, LeftLowerUnitIgnoresDiagonalValues) {
  // The unit-diagonal solve must never read the stored diagonal: poisoning
  // it with zeros (which would throw or produce NaN if divided by) changes
  // nothing.
  const std::size_t n = 65;
  Matrix l = lower_triangular(n, /*unit_diag=*/true, 300);
  Matrix b = random_rhs(n, 9, 301);
  Matrix b_poisoned = b;
  Matrix l_poisoned = l;
  for (std::size_t j = 0; j < n; ++j) l_poisoned(j, j) = 0.0;
  trsm_left_lower_unit(l.view(), b.view());
  trsm_left_lower_unit(l_poisoned.view(), b_poisoned.view());
  EXPECT_TRUE(same_bits(b.view(), b_poisoned.view()));
}

TEST(Trsm, RightUpperBitIdenticalToReference) {
  for (std::size_t n : kSizes) {
    const Matrix u = upper_triangular(n, 400 + n);
    Matrix b = random_rhs(rhs_width(n), n, 500 + n);
    Matrix ref = b;
    trsm_right_upper(u.view(), b.view());
    trsm_right_upper_reference(u.view(), ref.view());
    EXPECT_TRUE(same_bits(b.view(), ref.view())) << "n=" << n;
  }
}

TEST(Trsm, RightLowerTransposedBitIdenticalToReference) {
  for (std::size_t n : kSizes) {
    const Matrix l = lower_triangular(n, /*unit_diag=*/false, 600 + n);
    Matrix b = random_rhs(rhs_width(n), n, 700 + n);
    Matrix ref = b;
    trsm_right_lower_transposed(l.view(), b.view());
    trsm_right_lower_transposed_reference(l.view(), ref.view());
    EXPECT_TRUE(same_bits(b.view(), ref.view())) << "n=" << n;
  }
}

TEST(Trsm, LeftUpperMatchesReferenceToRoundoff) {
  // The blocked back substitution sums in a different deterministic order
  // than the reference's ascending-p sweep, so this one compares with a
  // tolerance scaled by the solve depth.
  for (std::size_t n : kSizes) {
    const Matrix u = upper_triangular(n, 800 + n);
    Matrix b = random_rhs(n, rhs_width(n), 900 + n);
    Matrix ref = b;
    trsm_left_upper(u.view(), b.view());
    trsm_left_upper_reference(u.view(), ref.view());
    EXPECT_LT(max_abs_diff(b.view(), ref.view()), 1e-12 * double(n + 1))
        << "n=" << n;
  }
}

TEST(Trsm, LeftUpperResidualSmall) {
  // Independent correctness anchor for the one variant without a bitwise
  // reference tie: U * X must reproduce the original right-hand side.
  const std::size_t n = 130, w = 17;
  const Matrix u = upper_triangular(n, 1000);
  const Matrix b0 = random_rhs(n, w, 1001);
  Matrix x = b0;
  trsm_left_upper(u.view(), x.view());
  Matrix residual(n, w, 0.0);
  gemm_reference(Trans::No, Trans::No, 1.0, u.view(), x.view(), 0.0,
                 residual.view());
  EXPECT_LT(max_abs_diff(residual.view(), b0.view()), 1e-10);
}

// ------------------------------------------------ kernel dispatch

TEST(Trsm, KernelNameFollowsGemmDispatch) {
  KernelGuard guard;
  const std::vector<std::string> accepted = accepted_kernels();
  for (const std::string& kern : accepted) {
    ASSERT_TRUE(gemm_force_kernel(kern));
    EXPECT_EQ(trsm_kernel_name(), kern);
  }
  gemm_force_kernel("auto");
  const std::string name = trsm_kernel_name();
  EXPECT_NE(std::find(accepted.begin(), accepted.end(), name),
            accepted.end())
      << name;
  EXPECT_EQ(name, gemm_kernel_name());
}

TEST(Trsm, ColumnPrimitivesMatchPlainLoopsBitForBit) {
  // The solves subtract through the kernel table's saxpy with the
  // coefficient negated, and divide through its col_div. On every kernel
  // the host accepts, both must reproduce the plain loops bit for bit, on
  // what the random solves above never draw: signed zeros, subnormals, and
  // magnitudes near 1e300 whose products overflow (inexact values such as
  // 0.1 catch a fused multiply-add). Lengths 0-9, 15-17 and 63-67 reach the
  // 4- and 8-wide vector bodies and every tail. No divisor is zero: the
  // solves reject a zero diagonal before dividing.
  KernelGuard guard;
  const double values[] = {0.0,     -0.0,  4.9e-324, -4.9e-324, 2.2e-308,
                           -1e-310, 1e300, -1e300,   3e299,     1.0,
                           -0.75,   3.0,   0.1,      -1.0 / 3.0};
  const std::size_t nv = sizeof(values) / sizeof(values[0]);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 9; ++n) lengths.push_back(n);
  for (std::size_t n = 15; n <= 17; ++n) lengths.push_back(n);
  for (std::size_t n = 63; n <= 67; ++n) lengths.push_back(n);
  auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  for (const std::string& name : accepted_kernels()) {
    ASSERT_TRUE(gemm_force_kernel(name));
    const detail::GemmKernel& kern = detail::active_kernel();
    for (const std::size_t n : lengths) {
      for (const double a : values) {
        // Every (x, y) pair of values meets at the lengths of 14 and more.
        for (std::size_t shift = 0; shift < nv; ++shift) {
          std::vector<double> x(n), y(n);
          for (std::size_t i = 0; i < n; ++i) {
            x[i] = values[i % nv];
            y[i] = values[(i + shift) % nv];
          }
          std::vector<double> want = y, got = y;
          for (std::size_t i = 0; i < n; ++i) want[i] = y[i] - x[i] * a;
          kern.saxpy(got.data(), x.data(), -a, n);
          EXPECT_TRUE(same(got, want))
              << name << " saxpy n=" << n << " a=" << a << " shift=" << shift;
          if (a == 0.0) continue;
          want = y;
          got = y;
          for (std::size_t i = 0; i < n; ++i) want[i] = y[i] / a;
          kern.col_div(got.data(), a, n);
          EXPECT_TRUE(same(got, want))
              << name << " col_div n=" << n << " d=" << a << " shift="
              << shift;
        }
      }
    }
  }
}

TEST(Trsm, AllVariantsBitIdenticalAcrossKernels) {
  // The dispatch contract: switching from the scalar kernel to any other
  // (column primitives and the gemm tails together) may never change a
  // computed bit, for any variant — including trsm_left_upper, whose order
  // differs from the *reference* but not across kernels.
  KernelGuard guard;
  const std::vector<std::string> kernels = simd_kernels();
  if (kernels.empty()) GTEST_SKIP() << "host runs the scalar kernel only";
  for (std::size_t n : {std::size_t{65}, std::size_t{130}}) {
    const Matrix l_unit = lower_triangular(n, true, 1100 + n);
    const Matrix l = lower_triangular(n, false, 1200 + n);
    const Matrix u = upper_triangular(n, 1300 + n);
    const std::size_t w = rhs_width(n);
    const Matrix b1 = random_rhs(n, w, 1400 + n);
    const Matrix b2 = random_rhs(n, w, 1500 + n);
    const Matrix b3 = random_rhs(w, n, 1600 + n);
    const Matrix b4 = random_rhs(w, n, 1700 + n);
    Matrix s1 = b1, s2 = b2, s3 = b3, s4 = b4;
    ASSERT_TRUE(gemm_force_kernel("scalar"));
    trsm_left_lower_unit(l_unit.view(), s1.view());
    trsm_left_upper(u.view(), s2.view());
    trsm_right_upper(u.view(), s3.view());
    trsm_right_lower_transposed(l.view(), s4.view());
    for (const std::string& kern : kernels) {
      Matrix x1 = b1, x2 = b2, x3 = b3, x4 = b4;
      ASSERT_TRUE(gemm_force_kernel(kern));
      trsm_left_lower_unit(l_unit.view(), x1.view());
      trsm_left_upper(u.view(), x2.view());
      trsm_right_upper(u.view(), x3.view());
      trsm_right_lower_transposed(l.view(), x4.view());
      EXPECT_TRUE(same_bits(x1.view(), s1.view()))
          << kern << " left_lower n=" << n;
      EXPECT_TRUE(same_bits(x2.view(), s2.view()))
          << kern << " left_upper n=" << n;
      EXPECT_TRUE(same_bits(x3.view(), s3.view()))
          << kern << " right_upper n=" << n;
      EXPECT_TRUE(same_bits(x4.view(), s4.view()))
          << kern << " right_lower_t n=" << n;
    }
  }
}

// ------------------------------------------------ preconditions

TEST(Trsm, SingularDiagonalThrows) {
  const std::size_t n = 70;  // > one block so the check covers later slices
  Matrix u = upper_triangular(n, 1800);
  u(67, 67) = 0.0;
  Matrix b = random_rhs(n, 5, 1801);
  EXPECT_THROW(trsm_left_upper(u.view(), b.view()), PreconditionError);
  Matrix br = random_rhs(5, n, 1802);
  EXPECT_THROW(trsm_right_upper(u.view(), br.view()), PreconditionError);
  Matrix l = lower_triangular(n, false, 1803);
  l(67, 67) = 0.0;
  EXPECT_THROW(trsm_right_lower_transposed(l.view(), br.view()),
               PreconditionError);
}

TEST(Trsm, ShapeMismatchThrows) {
  const Matrix l = lower_triangular(8, true, 1900);
  Matrix b = random_rhs(9, 4, 1901);  // 9 != 8 rows
  EXPECT_THROW(trsm_left_lower_unit(l.view(), b.view()), PreconditionError);
  Matrix br = random_rhs(4, 9, 1902);  // 9 != 8 cols
  EXPECT_THROW(trsm_right_upper(upper_triangular(8, 1903).view(), br.view()),
               PreconditionError);
}

}  // namespace
}  // namespace hetgrid
