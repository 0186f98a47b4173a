// Matrix norms and residual measures used by correctness tests.
#pragma once

#include "matrix/matrix.hpp"

namespace hetgrid {

/// Frobenius norm.
double norm_frobenius(const ConstMatrixView& a);

/// Infinity norm (max absolute row sum).
double norm_inf(const ConstMatrixView& a);

/// Largest absolute entry.
double norm_max(const ConstMatrixView& a);

/// max_ij |a_ij - b_ij|; shapes must match.
double max_abs_diff(const ConstMatrixView& a, const ConstMatrixView& b);

}  // namespace hetgrid
