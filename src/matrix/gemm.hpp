// General matrix multiply kernels.
//
// gemm computes C := alpha * op(A) * op(B) + beta * C with one cache-blocked
// packed loop for every shape and transpose combination: each op(A)/op(B)
// tile is copied into a contiguous per-thread buffer and a dispatched
// microkernel (scalar, AVX2 or AVX-512) streams over the packs. This is the
// compute kernel the distributed outer-product algorithm calls on each local
// block update.
#pragma once

#include <string_view>

#include "matrix/matrix.hpp"

namespace hetgrid {

enum class Trans { No, Yes };

/// C := alpha * op(A) * op(B) + beta * C.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n.
/// Every call packs the A/B tiles into contiguous buffers (pure data
/// movement, with alpha folded into the B pack) and runs the dispatched
/// microkernel over them; each C element gets one ascending-p chain of
/// multiply-then-add steps, whatever the shape. Transposed operands are
/// handled by the pack alone (the tiles are copied through op()), so every
/// transpose combination runs on the same microkernel and inherits its
/// scalar-vs-SIMD bit-identity.
void gemm(Trans trans_a, Trans trans_b, double alpha, const ConstMatrixView& a,
          const ConstMatrixView& b, double beta, MatrixView c);

/// Name of the packed-tile microkernel gemm would dispatch to right now:
/// the first of "avx512" (an x86-64 host with AVX-512F), "avx2" (one with
/// AVX2) and "scalar" that the host runs. The SIMD kernels use explicit
/// mul+add vectors — never FMA, whose single rounding would break
/// bit-identity with the scalar kernel. Every kernel produces bit-identical
/// results; the name only tells you which one is doing it.
const char* gemm_kernel_name();

/// Test hook: force the microkernel dispatch. Accepts "scalar", "avx2",
/// "avx512", or "auto" (restore runtime detection). Returns false — leaving
/// the current choice untouched — when the named kernel is unknown or
/// unavailable on this host. Takes effect on the next gemm call; not meant
/// to be raced against in-flight gemms. This is the one toggle for the
/// whole microkernel family: the blocked trsm (matrix/trsm.hpp) follows the
/// same choice, so forcing "scalar" proves the entire scalar fallback.
/// "auto" detection can additionally be pinned process-wide with the
/// HETGRID_GEMM_KERNEL environment variable (any of the kernel names above,
/// read once at first dispatch; an unknown or unavailable one is ignored) —
/// how CI runs the MP kernel tests on the scalar and avx2 paths.
bool gemm_force_kernel(std::string_view name);

/// Convenience: C += A * B (the rank-k update at the heart of the paper's
/// kernels).
void gemm_update(const ConstMatrixView& a, const ConstMatrixView& b,
                 MatrixView c);

/// Reference (unblocked, naive) implementation used by tests to validate the
/// blocked kernel.
void gemm_reference(Trans trans_a, Trans trans_b, double alpha,
                    const ConstMatrixView& a, const ConstMatrixView& b,
                    double beta, MatrixView c);

}  // namespace hetgrid
