// The SIMD microkernel, written once as a template over a vector-traits
// type and instantiated per ISA by the TUs that include this header:
// gemm_kernel_avx2.cpp (ymm, an 8x4 register block) and
// gemm_kernel_avx512.cpp (zmm, a 16x8 register block). Each of them is
// the only TU built for its ISA, always with -ffp-contract=off.
//
// A traits type V supplies `reg` (the vector type), `width` (doubles per
// vector) and six static functions on it: load and store (unaligned),
// set1 (broadcast), mul, add and div. mul and add stay two instructions,
// never one FMA.
//
// Bit-identity with the scalar kernel (see gemm_kernel.hpp): vectors run
// across i (rows of C) only. Every C element keeps the scalar kernel's
// chain "for p ascending: c = c + a*b", an individually rounded multiply
// and add per step; the register block loads the live C values before the
// p loop and stores them after it, so the chain starts from C exactly as
// the scalar kernel's in-memory updates do. saxpy and col_div are
// elementwise: one mul-then-add, or one IEEE divide, per y[i].
//
// Everything here sits in an anonymous namespace, so each including TU
// compiles its own internal copy for its own ISA. A function with external
// linkage that two ISA TUs both emit (an inline helper, or an instantiation
// that does not depend on the traits type) is one symbol to the linker,
// which keeps one body for every caller: possibly the AVX-512 one, for a
// call from code built for another ISA.
#pragma once

#include <cstddef>

#include "matrix/gemm_kernel.hpp"

namespace hetgrid::detail {
namespace {

// y[0:n) += x[0:n) * a, one vector at a time with a scalar tail. The tile
// calls it once per p in ascending order for its row and column tails.
template <class V>
void simd_saxpy(double* y, const double* x, double a, std::size_t n) {
  const typename V::reg va = V::set1(a);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width)
    V::store(y + i, V::add(V::load(y + i), V::mul(V::load(x + i), va)));
  for (; i < n; ++i) y[i] += x[i] * a;
}

// y[0:n) /= d: each lane rounds exactly like the scalar divide, so no
// reciprocal-multiply trickery is allowed here.
template <class V>
void simd_col_div(double* y, double d, std::size_t n) {
  const typename V::reg vd = V::set1(d);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width)
    V::store(y + i, V::div(V::load(y + i), vd));
  for (; i < n; ++i) y[i] /= d;
}

// Register-blocked core: a (2 * width) x NR block of C lives in 2 * NR
// accumulators across the whole p loop, so the hot loop touches memory
// only for the packed A column (two vectors) and NR B scalars per step.
// Sized to the register file (Goto and van de Geijn): with two A vectors
// and one broadcast live as well, 11 of 16 ymm for the 8x4 block, 19 of
// 32 zmm for the 16x8 one.
template <class V, std::size_t NR>
void simd_block(const double* apack, std::size_t mlen, const double* bpack,
                std::size_t klen, double* cbase, std::size_t ldc,
                std::size_t i0, std::size_t j0) {
  using Reg = typename V::reg;
  constexpr std::size_t w = V::width;
  double* c = cbase + j0 * ldc + i0;
  const double* b = bpack + j0 * klen;
  // The j loops are unrolled in full so lo and hi live in registers, not
  // in a stack array.
  Reg lo[NR], hi[NR];
#pragma GCC unroll 16
  for (std::size_t j = 0; j < NR; ++j) {
    lo[j] = V::load(c + j * ldc);
    hi[j] = V::load(c + j * ldc + w);
  }
  for (std::size_t p = 0; p < klen; ++p) {
    const double* acol = apack + p * mlen + i0;
    const Reg al = V::load(acol);
    const Reg ah = V::load(acol + w);
#pragma GCC unroll 16
    for (std::size_t j = 0; j < NR; ++j) {
      const Reg vb = V::set1(b[j * klen + p]);
      lo[j] = V::add(lo[j], V::mul(al, vb));
      hi[j] = V::add(hi[j], V::mul(ah, vb));
    }
  }
#pragma GCC unroll 16
  for (std::size_t j = 0; j < NR; ++j) {
    V::store(c + j * ldc, lo[j]);
    V::store(c + j * ldc + w, hi[j]);
  }
}

template <class V, std::size_t NR>
void simd_tile(const double* apack, std::size_t mlen, const double* bpack,
               std::size_t klen, double* cbase, std::size_t ldc,
               std::size_t jlen) {
  constexpr std::size_t mr = 2 * V::width;
  std::size_t j = 0;
  for (; j + NR <= jlen; j += NR) {
    std::size_t i = 0;
    for (; i + mr <= mlen; i += mr)
      simd_block<V, NR>(apack, mlen, bpack, klen, cbase, ldc, i, j);
    if (i < mlen) {
      // Row tail of the NR-column block: per column, the same ascending-p
      // saxpy steps.
      for (std::size_t t = 0; t < NR; ++t) {
        const double* bcol = bpack + (j + t) * klen;
        double* ccol = cbase + (j + t) * ldc + i;
        for (std::size_t p = 0; p < klen; ++p)
          simd_saxpy<V>(ccol, apack + p * mlen + i, bcol[p], mlen - i);
      }
    }
  }
  for (; j < jlen; ++j) {  // column tail
    const double* bcol = bpack + j * klen;
    double* ccol = cbase + j * ldc;
    for (std::size_t p = 0; p < klen; ++p)
      simd_saxpy<V>(ccol, apack + p * mlen, bcol[p], mlen);
  }
}

// The kernel-table entry for traits V and an NR-column register block.
// Blocking: the mc x kc A pack (96*256 doubles, ~192 KiB) targets L2 and
// the kc x nc B pack (256*512 doubles, 1 MiB) targets L3, a level up from
// the scalar kernel's L1-sized 64/64/128 tiles, which would leave the
// register block starved on repacks. mc is a multiple of both blocks'
// rows (8 and 16) and nc of their widths (4 and 8).
template <class V, std::size_t NR>
constexpr GemmKernel simd_kernel(const char* name) {
  static_assert(96 % (2 * V::width) == 0 && 512 % NR == 0);
  return {name,          96,         256, 512, simd_tile<V, NR>,
          simd_saxpy<V>, simd_col_div<V>};
}

}  // namespace
}  // namespace hetgrid::detail
