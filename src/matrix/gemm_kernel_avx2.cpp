// AVX2 instantiation of the SIMD microkernel (gemm_kernel_simd.hpp): ymm
// vectors of 4 doubles and an 8x4 register block.
//
// This is the only TU compiled with -mavx2 (plus -ffp-contract=off so the
// compiler cannot contract the scalar edge loops into FMAs on hosts where
// the build enables them). Everything else in the library stays on the
// baseline ISA; gemm.cpp asks gemm_kernel_avx2() at first use and falls back
// to the next kernel when this returns nullptr. The kernel table is
// constant-initialized, so no code of this TU runs before that probe.
#include "matrix/gemm_kernel.hpp"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include "matrix/gemm_kernel_simd.hpp"

namespace hetgrid::detail {
namespace {

// _mm256_mul_pd then _mm256_add_pd, never _mm256_fmadd_pd: FMA's single
// rounding differs from the scalar kernel's mul-then-add.
struct Avx2 {
  using reg = __m256d;
  static constexpr std::size_t width = 4;
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg set1(double a) { return _mm256_set1_pd(a); }
  static reg mul(reg x, reg y) { return _mm256_mul_pd(x, y); }
  static reg add(reg x, reg y) { return _mm256_add_pd(x, y); }
  static reg div(reg x, reg y) { return _mm256_div_pd(x, y); }
};

constexpr GemmKernel kAvx2Kernel = simd_kernel<Avx2, 4>("avx2");

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
