// Triangular solves with multiple right-hand sides (BLAS-3 trsm subset).
//
// Only the variants the right-looking LU / Cholesky / QR factorizations need
// are implemented; each is explicit rather than hidden behind a flag soup.
//
// All four are *blocked* solves: a small right-looking head on each diagonal
// slice of the triangle (vectorizable column saxpy/divide primitives,
// dispatched scalar vs AVX2 alongside the gemm microkernel) plus one
// gemm-shaped rank-k tail update per slice that runs on the packed gemm
// microkernel itself. The dispatch follows gemm_force_kernel /
// HETGRID_GEMM_KERNEL, and every variant is bit-identical across that
// dispatch. Three of the four (trsm_left_lower_unit, trsm_right_upper,
// trsm_right_lower_transposed — exactly the ones on the MP runtime's
// critical path) additionally preserve the historical unblocked solves'
// per-element floating-point sequence, so their results are bit-identical
// to the *_reference forms below; trsm_left_upper's blocked form uses a
// different (deterministic) summation order.
#pragma once

#include "matrix/matrix.hpp"

namespace hetgrid {

/// B := inv(L) * B where L is lower triangular with unit diagonal
/// (forward substitution; the "apply L panel" step of LU).
void trsm_left_lower_unit(const ConstMatrixView& l, MatrixView b);

/// B := inv(U) * B where U is upper triangular, non-unit diagonal
/// (back substitution). Reads only the upper triangle of `u` (diagonal
/// included), so U may share storage with other data below it — e.g. R
/// above the Householder vectors of a QR factorization.
void trsm_left_upper(const ConstMatrixView& u, MatrixView b);

/// B := B * inv(U) where U is upper triangular, non-unit diagonal
/// (the "compute U12 row panel" step of right-looking LU uses the dual:
///  solving X * L11^T = ... is expressed with this form on transposes; we
///  provide the direct right-solve used by our blocked LU).
void trsm_right_upper(const ConstMatrixView& u, MatrixView b);

/// B := B * inv(L)^T with L lower triangular, non-unit diagonal — the
/// panel solve of the blocked Cholesky.
void trsm_right_lower_transposed(const ConstMatrixView& l, MatrixView b);

/// Name of the trsm column-primitive kernel the solves would use right now
/// ("scalar" or "avx2"); always matches gemm_kernel_name()'s family choice.
const char* trsm_kernel_name();

/// Reference (historical unblocked triple-loop) solves, kept for tests and
/// the trsm bench. The three bit-identity-preserving blocked variants must
/// match these to the bit; trsm_left_upper matches to rounding error.
void trsm_left_lower_unit_reference(const ConstMatrixView& l, MatrixView b);
void trsm_left_upper_reference(const ConstMatrixView& u, MatrixView b);
void trsm_right_upper_reference(const ConstMatrixView& u, MatrixView b);
void trsm_right_lower_transposed_reference(const ConstMatrixView& l,
                                           MatrixView b);

}  // namespace hetgrid
