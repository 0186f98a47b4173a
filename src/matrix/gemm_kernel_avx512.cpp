// AVX-512 instantiation of the SIMD microkernel (gemm_kernel_simd.hpp):
// zmm vectors of 8 doubles and a 16x8 register block.
//
// This is the only TU compiled with -mavx512f (plus -ffp-contract=off;
// -mavx512f does not enable FMA either). Everything else in the library
// stays on the baseline ISA; gemm.cpp asks gemm_kernel_avx512() at first
// use and falls back to the next kernel when this returns nullptr. The
// kernel table is constant-initialized, so no code of this TU runs before
// that probe.
#include "matrix/gemm_kernel.hpp"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include "matrix/gemm_kernel_simd.hpp"

namespace hetgrid::detail {
namespace {

// _mm512_mul_pd then _mm512_add_pd, never _mm512_fmadd_pd: FMA's single
// rounding differs from the scalar kernel's mul-then-add.
struct Avx512 {
  using reg = __m512d;
  static constexpr std::size_t width = 8;
  static reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg set1(double a) { return _mm512_set1_pd(a); }
  static reg mul(reg x, reg y) { return _mm512_mul_pd(x, y); }
  static reg add(reg x, reg y) { return _mm512_add_pd(x, y); }
  static reg div(reg x, reg y) { return _mm512_div_pd(x, y); }
};

constexpr GemmKernel kAvx512Kernel = simd_kernel<Avx512, 8>("avx512");

}  // namespace

const GemmKernel* gemm_kernel_avx512() {
  return __builtin_cpu_supports("avx512f") ? &kAvx512Kernel : nullptr;
}

}  // namespace hetgrid::detail

#else  // non-x86-64 target or AVX-512F not enabled for this TU

namespace hetgrid::detail {

const GemmKernel* gemm_kernel_avx512() { return nullptr; }

}  // namespace hetgrid::detail

#endif
