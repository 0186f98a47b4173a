#include "matrix/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "matrix/gemm_kernel.hpp"
#include "obs/metrics.hpp"

namespace hetgrid {

namespace {

using detail::GemmKernel;

// Shape-classification bounds. These are fixed constants — NOT the
// dispatched kernel's blocking — so whether a call counts as a tile call or
// a packed call (gemm.tile_calls / gemm.packed_calls) is a property of the
// call's shape alone, identical on every host and for every kernel choice.
// They double as the scalar kernel's cache blocking, tuned for "fits
// comfortably in L1/L2" rather than for a specific machine.
constexpr std::size_t kSmallM = 64;
constexpr std::size_t kSmallK = 64;
constexpr std::size_t kSmallN = 128;

double op_at(const ConstMatrixView& m, Trans t, std::size_t i, std::size_t j) {
  return t == Trans::No ? m(i, j) : m(j, i);
}

// Beta-scaling prologue. This is the one place a zero test earns its keep:
// it runs once per output element per call, not inside the accumulation
// loop, and beta == 0 must overwrite (not propagate) stale NaNs in C.
void scale_c(double beta, MatrixView c) {
  if (beta == 1.0) return;
  for (std::size_t j = 0; j < c.cols(); ++j)
    for (std::size_t i = 0; i < c.rows(); ++i)
      c(i, j) = (beta == 0.0) ? 0.0 : beta * c(i, j);
}

void check_shapes(Trans trans_a, Trans trans_b, const ConstMatrixView& a,
                  const ConstMatrixView& b, const MatrixView& c) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t ka = trans_a == Trans::No ? a.cols() : a.rows();
  const std::size_t ma = trans_a == Trans::No ? a.rows() : a.cols();
  const std::size_t kb = trans_b == Trans::No ? b.rows() : b.cols();
  const std::size_t nb = trans_b == Trans::No ? b.cols() : b.rows();
  HG_CHECK(ma == m && nb == n && ka == kb,
           "gemm shape mismatch: C " << m << "x" << n << ", op(A) " << ma
                                     << "x" << ka << ", op(B) " << kb << "x"
                                     << nb);
}

bool is_small_nn(std::size_t m, std::size_t n, std::size_t k) {
  return m <= kSmallM && k <= kSmallK && n <= kSmallN;
}

// Counts one *logical* gemm call. Classification uses only the call's
// transpose flags, alpha, and full output shape — never the thread count or
// the dispatched kernel — so metric snapshots are byte-stable across both.
// Every call takes the same packed path; the tile/packed split records
// only whether an untransposed call fits one scalar-kernel tile.
void count_gemm_call(Trans trans_a, Trans trans_b, double alpha,
                     std::size_t m, std::size_t n, std::size_t k) {
  metric_count("gemm.calls");
  if (alpha == 0.0) return;  // no kernel runs: scale-only call
  if (trans_a != Trans::No || trans_b != Trans::No) return;
  metric_count(is_small_nn(m, n, k) ? "gemm.tile_calls"
                                    : "gemm.packed_calls");
}

// Copies A(i0:i1, p0:p1) into a contiguous column-major mlen x klen tile.
void pack_a(const ConstMatrixView& a, std::size_t i0, std::size_t i1,
            std::size_t p0, std::size_t p1, double* buf) {
  const std::size_t mlen = i1 - i0;
  for (std::size_t p = p0; p < p1; ++p) {
    const double* src = a.data() + i0 + p * a.ld();
    double* dst = buf + (p - p0) * mlen;
    std::copy(src, src + mlen, dst);
  }
}

// Copies alpha * B(p0:p1, j0:j1) into a contiguous column-major klen x jlen
// tile; folding alpha into the pack keeps it out of the inner kernel.
void pack_b(double alpha, const ConstMatrixView& b, std::size_t p0,
            std::size_t p1, std::size_t j0, std::size_t j1, double* buf) {
  const std::size_t klen = p1 - p0;
  for (std::size_t j = j0; j < j1; ++j) {
    const double* src = b.data() + p0 + j * b.ld();
    double* dst = buf + (j - j0) * klen;
    for (std::size_t p = 0; p < klen; ++p) dst[p] = alpha * src[p];
  }
}

// Transposed-tile packs: the same contiguous layouts, filled through op().
// Transposition happens entirely in the copy — the compute kernels never
// see a transpose flag — so every transpose combination runs the identical
// microkernel sequence and inherits its bit-identity contract.
void pack_a_t(const ConstMatrixView& a, std::size_t i0, std::size_t i1,
              std::size_t p0, std::size_t p1, double* buf) {
  const std::size_t mlen = i1 - i0;
  // op(A)(i, p) = a(p, i): read each source column a(p0:p1, i) contiguously.
  for (std::size_t i = i0; i < i1; ++i) {
    const double* src = a.data() + p0 + i * a.ld();
    double* dst = buf + (i - i0);
    for (std::size_t p = 0; p < p1 - p0; ++p) dst[p * mlen] = src[p];
  }
}

void pack_b_t(double alpha, const ConstMatrixView& b, std::size_t p0,
              std::size_t p1, std::size_t j0, std::size_t j1, double* buf) {
  const std::size_t klen = p1 - p0;
  // op(B)(p, j) = b(j, p): read each source column b(j0:j1, p) contiguously.
  for (std::size_t p = p0; p < p1; ++p) {
    const double* src = b.data() + j0 + p * b.ld();
    double* dst = buf + (p - p0);
    for (std::size_t j = 0; j < j1 - j0; ++j) dst[j * klen] = alpha * src[j];
  }
}

// Scalar microkernel over packed tiles: C(i,j) += sum_p A(i,p)*B(p,j), with
// the B element hoisted so the inner loop is a saxpy down a contiguous
// column of A and C. The p loop runs in ascending order, so every C element
// sees one fixed floating-point operation sequence — packing is pure data
// movement. This is the portable fallback; the AVX2 kernel
// (gemm_kernel_avx2.cpp) reproduces the same per-element sequence with
// explicit mul+add vectors.
void tile_scalar(const double* apack, std::size_t mlen, const double* bpack,
                 std::size_t klen, double* cbase, std::size_t ldc,
                 std::size_t jlen) {
  for (std::size_t j = 0; j < jlen; ++j) {
    const double* bcol = bpack + j * klen;
    double* ccol = cbase + j * ldc;
    for (std::size_t p = 0; p < klen; ++p) {
      const double bpj = bcol[p];
      const double* acol = apack + p * mlen;
      for (std::size_t i = 0; i < mlen; ++i) ccol[i] += acol[i] * bpj;
    }
  }
}

constexpr GemmKernel kScalarKernel{"scalar", kSmallM, kSmallK, kSmallN,
                                   tile_scalar};

// Test hook: when non-null, overrides the auto-detected kernel.
std::atomic<const GemmKernel*> g_forced_kernel{nullptr};

const GemmKernel& active_kernel() {
  const GemmKernel* forced = g_forced_kernel.load(std::memory_order_relaxed);
  if (forced != nullptr) return *forced;
  // Detected once; the probe is a cpuid-backed builtin, not a config file,
  // so "auto" is a pure function of the host — unless HETGRID_GEMM_KERNEL
  // pins it ("scalar"/"avx2"), which is how CI proves the scalar fallback
  // on AVX2 builders. Unknown or unavailable values fall back to detection.
  static const GemmKernel* const detected = []() -> const GemmKernel* {
    const GemmKernel* simd = detail::gemm_kernel_avx2();
    const char* env = std::getenv("HETGRID_GEMM_KERNEL");
    if (env != nullptr) {
      if (std::string_view(env) == "scalar") return &kScalarKernel;
      if (std::string_view(env) == "avx2" && simd != nullptr) return simd;
    }
    return simd != nullptr ? simd : &kScalarKernel;
  }();
  return *detected;
}

// The one gemm loop, for every transpose combination and shape: copy op(B)
// and op(A) tiles into contiguous buffers sized for the dispatched kernel's
// blocking (alpha folded into the B pack) and stream its microkernel over
// them. Each kc x nc B tile (the outer, L3-resident level) is packed once
// per call, each mc x kc A tile (the L2-resident level below it) once per
// nc-wide block of C columns. The (j0, p0, i0) order gives every C element an
// ascending-p chain of multiply-then-add steps accumulated in C itself, so
// the blocking (and therefore the kernel choice) never changes a bit.
void gemm_blocked(Trans trans_a, Trans trans_b, double alpha,
                  const ConstMatrixView& a, const ConstMatrixView& b,
                  MatrixView c) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = trans_a == Trans::No ? a.cols() : a.rows();
  const GemmKernel& kern = active_kernel();
  // Per-thread pack buffers: reused across calls (resize only grows the
  // allocation), so concurrent gemms on task-graph workers never share
  // them and a kernel switch mid-process just re-sizes on next use.
  thread_local std::vector<double> apack;
  thread_local std::vector<double> bpack;
  apack.resize(kern.mc * kern.kc);
  bpack.resize(kern.kc * kern.nc);
  for (std::size_t j0 = 0; j0 < n; j0 += kern.nc) {
    const std::size_t j1 = std::min(j0 + kern.nc, n);
    for (std::size_t p0 = 0; p0 < k; p0 += kern.kc) {
      const std::size_t p1 = std::min(p0 + kern.kc, k);
      if (trans_b == Trans::No)
        pack_b(alpha, b, p0, p1, j0, j1, bpack.data());
      else
        pack_b_t(alpha, b, p0, p1, j0, j1, bpack.data());
      for (std::size_t i0 = 0; i0 < m; i0 += kern.mc) {
        const std::size_t i1 = std::min(i0 + kern.mc, m);
        if (trans_a == Trans::No)
          pack_a(a, i0, i1, p0, p1, apack.data());
        else
          pack_a_t(a, i0, i1, p0, p1, apack.data());
        kern.tile(apack.data(), i1 - i0, bpack.data(), p1 - p0,
                  c.data() + i0 + j0 * c.ld(), c.ld(), j1 - j0);
      }
    }
  }
}

}  // namespace

const char* gemm_kernel_name() { return active_kernel().name; }

bool gemm_force_kernel(std::string_view name) {
  if (name == "auto") {
    g_forced_kernel.store(nullptr, std::memory_order_relaxed);
    return true;
  }
  if (name == "scalar") {
    g_forced_kernel.store(&kScalarKernel, std::memory_order_relaxed);
    return true;
  }
  if (name == "avx2") {
    const GemmKernel* simd = detail::gemm_kernel_avx2();
    if (simd == nullptr) return false;
    g_forced_kernel.store(simd, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void gemm(Trans trans_a, Trans trans_b, double alpha, const ConstMatrixView& a,
          const ConstMatrixView& b, double beta, MatrixView c) {
  check_shapes(trans_a, trans_b, a, b, c);
  const std::size_t k = trans_a == Trans::No ? a.cols() : a.rows();
  count_gemm_call(trans_a, trans_b, alpha, c.rows(), c.cols(), k);
  scale_c(beta, c);
  if (alpha == 0.0) return;
  gemm_blocked(trans_a, trans_b, alpha, a, b, c);
}

void gemm_update(const ConstMatrixView& a, const ConstMatrixView& b,
                 MatrixView c) {
  gemm(Trans::No, Trans::No, 1.0, a, b, 1.0, c);
}

void gemm_reference(Trans trans_a, Trans trans_b, double alpha,
                    const ConstMatrixView& a, const ConstMatrixView& b,
                    double beta, MatrixView c) {
  check_shapes(trans_a, trans_b, a, b, c);
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = trans_a == Trans::No ? a.cols() : a.rows();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += op_at(a, trans_a, i, p) * op_at(b, trans_b, p, j);
      c(i, j) = alpha * acc + (beta == 0.0 ? 0.0 : beta * c(i, j));
    }
}

}  // namespace hetgrid
