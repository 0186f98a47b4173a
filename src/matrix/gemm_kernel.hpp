// Internal microkernel dispatch table, shared by gemm and the blocked trsm.
//
// A GemmKernel bundles a packed-tile inner kernel with the cache-blocking
// geometry it was tuned for, plus the two column primitives the solves
// build on: saxpy (y += x * a) and col_div (y /= d). gemm.cpp owns the
// scalar kernel, the dispatch list and active_kernel(), the one selection
// gemm and trsm both read. The SIMD kernels are one register-block
// template (gemm_kernel_simd.hpp) instantiated in one TU per ISA:
// gemm_kernel_avx512.cpp (-mavx512f, a 16x8 block in zmm) and
// gemm_kernel_avx2.cpp (-mavx2, an 8x4 block in ymm). Each contributes
// its kernel when the build targets x86-64 and the CPU reports the ISA at
// runtime; dispatch takes avx512, then avx2, then scalar.
//
// Bit-identity contract: every kernel must produce, for every C element, the
// exact floating-point operation sequence of the scalar kernel — an ascending-
// p chain of individually rounded multiply-then-add steps (no FMA, which
// rounds once where mul+add rounds twice). Vectorizing across i (rows) keeps
// each element's chain untouched, so scalar and SIMD kernels agree to the bit
// and the dispatch choice can never change a computed result. The column
// primitives are elementwise (one multiply-then-add, or one IEEE divide, per
// y[i]) and keep the same contract. NaN results are the one exception:
// IEEE-754 leaves open which NaN operand propagates, and with it the sign.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace hetgrid::detail {

/// Packed-tile kernel: C(0:mlen, 0:jlen) += Apack * Bpack, where Apack is a
/// contiguous column-major mlen x klen tile, Bpack a contiguous column-major
/// klen x jlen tile (alpha already folded in by the pack), and C a column-
/// major view with leading dimension ldc.
using GemmTileFn = void (*)(const double* apack, std::size_t mlen,
                            const double* bpack, std::size_t klen,
                            double* cbase, std::size_t ldc, std::size_t jlen);

struct GemmKernel {
  const char* name;  // "scalar", "avx2", "avx512": gemm_kernel_name()
  std::size_t mc;    // A-panel rows   (mc x kc pack, L1/L2 resident)
  std::size_t kc;    // shared depth   (kc x nc B pack, L2/L3 resident)
  std::size_t nc;    // B-panel cols
  GemmTileFn tile;
  // y[i] += x[i] * a for i in [0, n): one column step of a tile, and the
  // column update of a right-looking trsm step with a negated coefficient
  // (y + x * (-a) rounds exactly like y - x * a: negation is exact and
  // round-to-nearest is symmetric).
  void (*saxpy)(double* y, const double* x, double a, std::size_t n);
  // y[i] /= d for i in [0, n): the diagonal divide of a non-unit solve.
  void (*col_div)(double* y, double d, std::size_t n);
};

/// The AVX2 kernel, or nullptr when the build target or the running CPU
/// lacks AVX2. Defined in gemm_kernel_avx2.cpp.
const GemmKernel* gemm_kernel_avx2();

/// The AVX-512 kernel, or nullptr when the build target or the running CPU
/// lacks AVX-512F. Defined in gemm_kernel_avx512.cpp.
const GemmKernel* gemm_kernel_avx512();

/// One entry of the dispatch list: a kernel's name and its probe, which
/// returns the kernel, or nullptr when this host cannot run it.
struct KernelEntry {
  std::string_view name;
  const GemmKernel* (*probe)();
};

/// Every kernel in dispatch order, fastest first: avx512, avx2, scalar.
/// Detection takes the first one whose probe succeeds; gemm_force_kernel
/// and HETGRID_GEMM_KERNEL look a name up here. Defined in gemm.cpp.
std::span<const KernelEntry> kernel_list();

/// The kernel gemm and trsm dispatch to right now: the one forced by
/// gemm_force_kernel, else the one detected at first use. Defined in
/// gemm.cpp.
const GemmKernel& active_kernel();

}  // namespace hetgrid::detail
