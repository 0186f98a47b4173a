// AVX2 packed-tile gemm microkernel.
//
// This is the only TU compiled with -mavx2 (plus -ffp-contract=off so the
// compiler cannot contract the scalar edge loops into FMAs on hosts where
// the build enables them). Everything else in the library stays on the
// baseline ISA; gemm.cpp asks gemm_kernel_avx2() at first use and falls back
// to the scalar kernel when this returns nullptr.
//
// Bit-identity with the scalar kernel (see gemm_kernel.hpp): the kernel
// vectorizes across i (rows of C) only. For each C element the accumulation
// chain is still "for p ascending: c = c + a*b" with an individually rounded
// multiply and add per step — _mm256_mul_pd/_mm256_add_pd are used, never
// _mm256_fmadd_pd, because FMA's single rounding differs from mul-then-add.
// The register blocking loads the live C values into accumulators *before*
// the p loop and stores after it, so the chain starts from C exactly as the
// scalar kernel's in-memory updates do.
#include "matrix/gemm_kernel.hpp"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

namespace hetgrid::detail {
namespace {

// One column's saxpy step: ccol[0:mlen) += acol[0:mlen) * bpj, 4 lanes at a
// time with a scalar tail. Called once per p in ascending order, so the
// per-element operation sequence matches the scalar kernel exactly.
inline void saxpy_col(const double* acol, double bpj, double* ccol,
                      std::size_t mlen) {
  const __m256d vb = _mm256_set1_pd(bpj);
  std::size_t i = 0;
  for (; i + 4 <= mlen; i += 4) {
    const __m256d va = _mm256_loadu_pd(acol + i);
    const __m256d vc = _mm256_loadu_pd(ccol + i);
    _mm256_storeu_pd(ccol + i, _mm256_add_pd(vc, _mm256_mul_pd(va, vb)));
  }
  for (; i < mlen; ++i) ccol[i] += acol[i] * bpj;
}

// Register-blocked core: an 8x4 block of C lives in eight ymm accumulators
// across the whole p loop (8 accumulators + 2 A lanes + 1 B broadcast = 11
// of the 16 ymm registers), so the hot loop touches memory only for the
// packed A column and four B scalars per step.
inline void block_8x4(const double* apack, std::size_t mlen,
                      const double* bpack, std::size_t klen, double* cbase,
                      std::size_t ldc, std::size_t i0, std::size_t j0) {
  const double* b0 = bpack + (j0 + 0) * klen;
  const double* b1 = bpack + (j0 + 1) * klen;
  const double* b2 = bpack + (j0 + 2) * klen;
  const double* b3 = bpack + (j0 + 3) * klen;
  double* c0 = cbase + (j0 + 0) * ldc + i0;
  double* c1 = cbase + (j0 + 1) * ldc + i0;
  double* c2 = cbase + (j0 + 2) * ldc + i0;
  double* c3 = cbase + (j0 + 3) * ldc + i0;
  __m256d c0l = _mm256_loadu_pd(c0), c0h = _mm256_loadu_pd(c0 + 4);
  __m256d c1l = _mm256_loadu_pd(c1), c1h = _mm256_loadu_pd(c1 + 4);
  __m256d c2l = _mm256_loadu_pd(c2), c2h = _mm256_loadu_pd(c2 + 4);
  __m256d c3l = _mm256_loadu_pd(c3), c3h = _mm256_loadu_pd(c3 + 4);
  for (std::size_t p = 0; p < klen; ++p) {
    const double* acol = apack + p * mlen + i0;
    const __m256d al = _mm256_loadu_pd(acol);
    const __m256d ah = _mm256_loadu_pd(acol + 4);
    __m256d vb = _mm256_set1_pd(b0[p]);
    c0l = _mm256_add_pd(c0l, _mm256_mul_pd(al, vb));
    c0h = _mm256_add_pd(c0h, _mm256_mul_pd(ah, vb));
    vb = _mm256_set1_pd(b1[p]);
    c1l = _mm256_add_pd(c1l, _mm256_mul_pd(al, vb));
    c1h = _mm256_add_pd(c1h, _mm256_mul_pd(ah, vb));
    vb = _mm256_set1_pd(b2[p]);
    c2l = _mm256_add_pd(c2l, _mm256_mul_pd(al, vb));
    c2h = _mm256_add_pd(c2h, _mm256_mul_pd(ah, vb));
    vb = _mm256_set1_pd(b3[p]);
    c3l = _mm256_add_pd(c3l, _mm256_mul_pd(al, vb));
    c3h = _mm256_add_pd(c3h, _mm256_mul_pd(ah, vb));
  }
  _mm256_storeu_pd(c0, c0l);
  _mm256_storeu_pd(c0 + 4, c0h);
  _mm256_storeu_pd(c1, c1l);
  _mm256_storeu_pd(c1 + 4, c1h);
  _mm256_storeu_pd(c2, c2l);
  _mm256_storeu_pd(c2 + 4, c2h);
  _mm256_storeu_pd(c3, c3l);
  _mm256_storeu_pd(c3 + 4, c3h);
}

void tile_avx2(const double* apack, std::size_t mlen, const double* bpack,
               std::size_t klen, double* cbase, std::size_t ldc,
               std::size_t jlen) {
  std::size_t j = 0;
  for (; j + 4 <= jlen; j += 4) {
    std::size_t i = 0;
    for (; i + 8 <= mlen; i += 8)
      block_8x4(apack, mlen, bpack, klen, cbase, ldc, i, j);
    if (i < mlen) {
      // Row tail of the 4-column block: per column, same ascending-p saxpy.
      for (std::size_t t = 0; t < 4; ++t) {
        const double* bcol = bpack + (j + t) * klen;
        double* ccol = cbase + (j + t) * ldc + i;
        for (std::size_t p = 0; p < klen; ++p)
          saxpy_col(apack + p * mlen + i, bcol[p], ccol, mlen - i);
      }
    }
  }
  for (; j < jlen; ++j) {  // column tail
    const double* bcol = bpack + j * klen;
    double* ccol = cbase + j * ldc;
    for (std::size_t p = 0; p < klen; ++p)
      saxpy_col(apack + p * mlen, bcol[p], ccol, mlen);
  }
}

// Blocking for the vectorized kernel: the mc x kc A pack (96*256 doubles,
// ~192 KiB) targets L2 and the kc x nc B pack (256*512 doubles, 1 MiB)
// targets L3 — a level up from the scalar kernel's L1-sized 64/64/128 tiles,
// which would leave the 8x4 register core starved on repacks. mc is a
// multiple of the 8-row register block and nc of its 4-column width.
constexpr GemmKernel kAvx2Kernel{"avx2", 96, 256, 512, tile_avx2};

}  // namespace

const GemmKernel* gemm_kernel_avx2() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernel : nullptr;
}

}  // namespace hetgrid::detail

#else  // non-x86-64 target or AVX2 not enabled for this TU

namespace hetgrid::detail {

const GemmKernel* gemm_kernel_avx2() { return nullptr; }

}  // namespace hetgrid::detail

#endif
