// LU factorization with partial pivoting — the right-looking variant the
// paper parallelizes (Section 3.2.1).
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/matrix.hpp"

namespace hetgrid {

/// Result of an in-place LU: `piv[k]` is the row swapped with row k at step
/// k (LAPACK-style ipiv, 0-based). A is overwritten with L (unit lower, not
/// stored diagonal) and U.
struct LuResult {
  std::vector<std::size_t> piv;
  bool singular = false;  // an exact zero pivot was hit
};

/// Unblocked LU with partial pivoting on the full view (getf2 analogue).
LuResult lu_factor_unblocked(MatrixView a);

/// Blocked right-looking LU with partial pivoting (getrf analogue):
/// factor panel -> apply pivots to trailing columns -> triangular solve for
/// the U row panel -> rank-b trailing update. `block` is the panel width.
LuResult lu_factor_blocked(MatrixView a, std::size_t block);

/// Unblocked LU *without* pivoting; requires a matrix whose leading
/// principal minors are nonsingular (e.g. diagonally dominant). run_mp_lu
/// factors its diagonal blocks with it: with no interchanges, the panel
/// needs no gather and no row messages (run_mp_lu_pivoted pays for both).
/// Returns true on success, false if an exact zero pivot was hit (matrix
/// left partially factored).
bool lu_factor_nopivot(MatrixView a);

/// Applies recorded row interchanges to `a` (laswp analogue) for columns of
/// a matrix that was not part of the factorization (e.g. RHS). Requires
/// piv.size() <= a.rows() and every entry < a.rows().
void lu_apply_pivots(const std::vector<std::size_t>& piv, MatrixView a);

/// Solves A x = b for multiple RHS using a factorization produced above.
/// `lu` holds packed L\U and `piv` one entry per row; `b` is overwritten
/// with the solution.
void lu_solve(const ConstMatrixView& lu, const std::vector<std::size_t>& piv,
              MatrixView b);

/// Reconstructs L*U from the packed factors (equals P*A for the pivoted
/// factorization, A itself for the unpivoted one); used by tests to
/// measure the backward error.
Matrix lu_reconstruct(const ConstMatrixView& lu, std::size_t orig_rows);

}  // namespace hetgrid
