// Householder QR factorization (the paper's second solver kernel, whose
// parallelization mirrors the right-looking LU).
#pragma once

#include <vector>

#include "matrix/matrix.hpp"

namespace hetgrid {

/// In-place Householder QR: after the call, the upper triangle of `a` holds
/// R and the strict lower triangle holds the Householder vectors v_k
/// (normalized so v_k[k] = 1, implicit); `tau[k]` are the reflector scales.
struct QrResult {
  std::vector<double> tau;
};

/// Recursive (level-3) Householder QR (geqrt3 analogue): splits the
/// columns in half down to panels of 16 or fewer, which run the column-by-
/// column loop (geqr2) — so a panel that narrow factors exactly as the
/// unblocked loop does. Requires rows >= cols. When `t` is non-null it
/// receives the cols x cols block-reflector factor T of the result,
/// bit-equal to qr_form_t(a, tau); without it the top-level T join is
/// skipped.
QrResult qr_factor(MatrixView a, Matrix* t = nullptr);

/// Applies Q^T (the product of the stored reflectors, transposed) to `b`
/// in place: b := Q^T b. Needed for least-squares solves.
void qr_apply_qt(const ConstMatrixView& qr, const std::vector<double>& tau,
                 MatrixView b);

/// Materializes the thin Q (rows x cols) from the stored reflectors.
Matrix qr_form_q(const ConstMatrixView& qr, const std::vector<double>& tau);

/// Builds the b x b upper-triangular block-reflector factor T with
/// H_0 H_1 ... H_{b-1} = I - V T V^T, where V is the unit-lower-trapezoid
/// of `panel` (LAPACK larft, forward columnwise, for b <= 16; wider panels
/// join the halves' factors on qr_factor's recursion, so the result is
/// bit-equal to the T that qr_factor returns). Needed by the blocked /
/// distributed QR trailing update.
Matrix qr_form_t(const ConstMatrixView& panel, const std::vector<double>& tau);

/// Least-squares solve min ||A x - b||: `qr`/`tau` from qr_factor of A
/// (m x n, m >= n); `b` is m x nrhs on input, the top n rows hold x on
/// output.
void qr_solve(const ConstMatrixView& qr, const std::vector<double>& tau,
              MatrixView b);

}  // namespace hetgrid
