#include "matrix/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "matrix/gemm_kernel.hpp"
#include "matrix/packed_cache.hpp"
#include "obs/metrics.hpp"

namespace hetgrid {

namespace {

using detail::GemmKernel;

const GemmKernel& active_kernel();  // defined below with the kernels

// Small-path classification bounds. These are fixed constants — NOT the
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
// gemm and gemm_cached each call this exactly once.
void count_gemm_call(Trans trans_a, Trans trans_b, double alpha,
                     std::size_t m, std::size_t n, std::size_t k) {
  metric_count("gemm.calls");
  if (alpha == 0.0) return;  // no kernel runs: scale-only call
  if (trans_a != Trans::No || trans_b != Trans::No) return;
  metric_count(is_small_nn(m, n, k) ? "gemm.tile_calls"
                                    : "gemm.packed_calls");
}

// Inner kernel for the no-transpose path: C(i,j) += sum_p A(i,p)*B(p,j)
// over a tile, with the B element hoisted so the inner loop is a saxpy down
// a contiguous column of A and C. The loop body is branch-free: zero B
// elements flow through the multiply-add like any other value, so the
// compiler can vectorize the i loop on dense inputs.
void tile_nn(double alpha, const ConstMatrixView& a, const ConstMatrixView& b,
             MatrixView c, std::size_t i0, std::size_t i1, std::size_t p0,
             std::size_t p1, std::size_t j0, std::size_t j1) {
  for (std::size_t j = j0; j < j1; ++j) {
    for (std::size_t p = p0; p < p1; ++p) {
      const double bpj = alpha * b(p, j);
      const double* acol = a.data() + i0 + p * a.ld();
      double* ccol = c.data() + i0 + j * c.ld();
      const std::size_t len = i1 - i0;
      for (std::size_t i = 0; i < len; ++i) ccol[i] += acol[i] * bpj;
    }
  }
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

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// Whole-operand pack builders. Tiles are laid out tightly in pack-loop
// order with per-tile offsets, exactly the bytes the streaming path's
// per-tile packs would produce, so the compute loop below replays the
// identical kernel-call sequence. `out` is reused (vectors only grow).
void build_pack_a(Trans trans_a, const ConstMatrixView& a,
                  const detail::GemmKernel& kern, PackedPanel& out) {
  const std::size_t m = trans_a == Trans::No ? a.rows() : a.cols();
  const std::size_t k = trans_a == Trans::No ? a.cols() : a.rows();
  out.rows = m;
  out.cols = k;
  out.mc = kern.mc;
  out.kc = kern.kc;
  out.nc = kern.nc;
  const std::size_t ni = ceil_div(m + (m == 0), kern.mc);
  const std::size_t np = ceil_div(k + (k == 0), kern.kc);
  out.tile_off.assign(ni * np, 0);
  out.data.resize(m * k);
  std::size_t off = 0;
  for (std::size_t pp = 0; pp < np; ++pp) {
    const std::size_t p0 = pp * kern.kc, p1 = std::min(p0 + kern.kc, k);
    for (std::size_t ip = 0; ip < ni; ++ip) {
      const std::size_t i0 = ip * kern.mc, i1 = std::min(i0 + kern.mc, m);
      out.tile_off[pp * ni + ip] = off;
      if (trans_a == Trans::No)
        pack_a(a, i0, i1, p0, p1, out.data.data() + off);
      else
        pack_a_t(a, i0, i1, p0, p1, out.data.data() + off);
      off += (i1 - i0) * (p1 - p0);
    }
  }
}

void build_pack_b(Trans trans_b, double alpha, const ConstMatrixView& b,
                  const detail::GemmKernel& kern, PackedPanel& out) {
  const std::size_t k = trans_b == Trans::No ? b.rows() : b.cols();
  const std::size_t n = trans_b == Trans::No ? b.cols() : b.rows();
  out.rows = k;
  out.cols = n;
  out.mc = kern.mc;
  out.kc = kern.kc;
  out.nc = kern.nc;
  const std::size_t np = ceil_div(k + (k == 0), kern.kc);
  const std::size_t nj = ceil_div(n + (n == 0), kern.nc);
  out.tile_off.assign(nj * np, 0);
  out.data.resize(k * n);
  std::size_t off = 0;
  for (std::size_t jp = 0; jp < nj; ++jp) {
    const std::size_t j0 = jp * kern.nc, j1 = std::min(j0 + kern.nc, n);
    for (std::size_t pp = 0; pp < np; ++pp) {
      const std::size_t p0 = pp * kern.kc, p1 = std::min(p0 + kern.kc, k);
      out.tile_off[jp * np + pp] = off;
      if (trans_b == Trans::No)
        pack_b(alpha, b, p0, p1, j0, j1, out.data.data() + off);
      else
        pack_b_t(alpha, b, p0, p1, j0, j1, out.data.data() + off);
      off += (p1 - p0) * (j1 - j0);
    }
  }
}

// Streams the dispatched microkernel over two whole-operand packs, in the
// same (j0, p0, i0) order — and therefore the same per-element ascending-p
// operation sequence — as the streaming gemm_nn_blocked path.
void packed_compute(const PackedPanel& pa, const PackedPanel& pb,
                    MatrixView c) {
  const GemmKernel& kern = active_kernel();
  HG_CHECK(pa.mc == kern.mc && pa.kc == kern.kc && pa.nc == kern.nc &&
               pb.mc == kern.mc && pb.kc == kern.kc && pb.nc == kern.nc,
           "packed panel blocking does not match the dispatched kernel "
           << kern.name);
  HG_CHECK(pa.rows == c.rows() && pb.cols == c.cols() && pa.cols == pb.rows,
           "packed panel shapes do not match C");
  const std::size_t m = pa.rows, k = pa.cols, n = pb.cols;
  if (m == 0 || k == 0 || n == 0) return;
  const std::size_t ni = ceil_div(m, kern.mc);
  const std::size_t np = ceil_div(k, kern.kc);
  for (std::size_t j0 = 0; j0 < n; j0 += kern.nc) {
    const std::size_t j1 = std::min(j0 + kern.nc, n);
    const std::size_t jp = j0 / kern.nc;
    for (std::size_t p0 = 0; p0 < k; p0 += kern.kc) {
      const std::size_t p1 = std::min(p0 + kern.kc, k);
      const std::size_t pp = p0 / kern.kc;
      const double* bt = pb.data.data() + pb.tile_off[jp * np + pp];
      for (std::size_t i0 = 0; i0 < m; i0 += kern.mc) {
        const std::size_t i1 = std::min(i0 + kern.mc, m);
        const std::size_t ip = i0 / kern.mc;
        kern.tile(pa.data.data() + pa.tile_off[pp * ni + ip], i1 - i0, bt,
                  p1 - p0, c.data() + i0 + j0 * c.ld(), c.ld(), j1 - j0);
      }
    }
  }
}

// Pack-cache consumption switch: -1 = unset (read HETGRID_PACK_CACHE on
// first use), else 0/1. A pure performance toggle by the bit-identity
// contract, which is why an environment variable is an acceptable owner.
std::atomic<int> g_pack_cache{-1};

std::uint64_t alpha_bits_of(double alpha) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &alpha, sizeof bits);
  return bits;
}

// Cache entry metadata: operand side, transpose, and kernel blocking. Two
// kernels never share packs (layout differs), and neither do the two sides
// or transpose senses of one block.
std::uint64_t pack_meta(bool b_side, Trans trans,
                        const detail::GemmKernel& kern) {
  return (b_side ? 1u : 0u) | (trans == Trans::Yes ? 2u : 0u) |
         (static_cast<std::uint64_t>(kern.mc) << 4) |
         (static_cast<std::uint64_t>(kern.kc) << 24) |
         (static_cast<std::uint64_t>(kern.nc) << 44);
}

// Resolves one operand to a packed panel: through the cache when tagged
// (pack once per (block, version), reuse across the whole trailing sweep),
// into a reusable thread-local panel otherwise. The returned pointer is
// valid until the next untagged resolve on this thread for that slot.
struct PanelRef {
  std::shared_ptr<const PackedPanel> owned;  // keeps a cached pack alive
  const PackedPanel* panel = nullptr;
};

PanelRef resolve_a(PackedPanelCache* cache, PackTag tag, Trans trans_a,
                   double, const ConstMatrixView& a,
                   const detail::GemmKernel& kern, PackedPanel& local) {
  PanelRef ref;
  if (cache != nullptr && tag.valid) {
    const PackedPanelCache::Key key{tag.id, tag.version,
                                    pack_meta(false, trans_a, kern), 0};
    ref.owned = cache->get(key, [&] {
      PackedPanel p;
      build_pack_a(trans_a, a, kern, p);
      return p;
    });
    ref.panel = ref.owned.get();
    return ref;
  }
  build_pack_a(trans_a, a, kern, local);
  ref.panel = &local;
  return ref;
}

PanelRef resolve_b(PackedPanelCache* cache, PackTag tag, Trans trans_b,
                   double alpha, const ConstMatrixView& b,
                   const detail::GemmKernel& kern, PackedPanel& local) {
  PanelRef ref;
  if (cache != nullptr && tag.valid) {
    const PackedPanelCache::Key key{tag.id, tag.version,
                                    pack_meta(true, trans_b, kern),
                                    alpha_bits_of(alpha)};
    ref.owned = cache->get(key, [&] {
      PackedPanel p;
      build_pack_b(trans_b, alpha, b, kern, p);
      return p;
    });
    ref.panel = ref.owned.get();
    return ref;
  }
  build_pack_b(trans_b, alpha, b, kern, local);
  ref.panel = &local;
  return ref;
}

// The fully packed path: both operands as whole-operand panels (cached
// where tagged), then the shared compute loop. Serves every transposed call
// and every cached no-transpose call.
void gemm_packed_path(Trans trans_a, Trans trans_b, double alpha,
                      const ConstMatrixView& a, PackTag a_tag,
                      const ConstMatrixView& b, PackTag b_tag, MatrixView c,
                      PackedPanelCache* cache) {
  const GemmKernel& kern = active_kernel();
  thread_local PackedPanel local_a, local_b;
  const PanelRef pa =
      resolve_a(cache, a_tag, trans_a, alpha, a, kern, local_a);
  const PanelRef pb =
      resolve_b(cache, b_tag, trans_b, alpha, b, kern, local_b);
  packed_compute(*pa.panel, *pb.panel, c);
}

// Same saxpy kernel as tile_nn, reading the packed tiles. The p loop runs
// in the same ascending order over the same values, so every C element sees
// the identical floating-point operation sequence as the unpacked kernel —
// packing is pure data movement. This is the portable fallback microkernel;
// the AVX2 kernel (gemm_kernel_avx2.cpp) reproduces the same per-element
// sequence with explicit mul+add vectors.
void tile_nn_packed(const double* apack, std::size_t mlen,
                    const double* bpack, std::size_t klen, double* cbase,
                    std::size_t ldc, std::size_t jlen) {
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
                                   tile_nn_packed};

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

// Blocked no-transpose path. Small problems (one scalar-sized tile in every
// dimension) skip the packing entirely — the distributed runtimes call this
// once per owned block, and a 16..64-wide block gains nothing from an extra
// copy. Large problems pack each A/B tile once into contiguous, alpha-folded
// buffers sized for the dispatched kernel's blocking and stream its
// microkernel over them: the kc x nc B pack is the outer (L3-resident)
// level, the mc x kc A pack the L2-resident level below it.
void gemm_nn_blocked(double alpha, const ConstMatrixView& a,
                     const ConstMatrixView& b, MatrixView c) {
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  if (is_small_nn(m, n, k)) {
    // Bounded by n as well as m/k: a 64 x 64 x N call with huge N would
    // otherwise stream strided B columns with no reuse. Taking the packed
    // path instead is bit-safe — the kernels are FP-identical per element.
    tile_nn(alpha, a, b, c, 0, m, 0, k, 0, n);
    return;
  }
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
      pack_b(alpha, b, p0, p1, j0, j1, bpack.data());
      for (std::size_t i0 = 0; i0 < m; i0 += kern.mc) {
        const std::size_t i1 = std::min(i0 + kern.mc, m);
        pack_a(a, i0, i1, p0, p1, apack.data());
        kern.tile(apack.data(), i1 - i0, bpack.data(), p1 - p0,
                  c.data() + i0 + j0 * c.ld(), c.ld(), j1 - j0);
      }
    }
  }
}

// Lazily reads HETGRID_PACK_CACHE into the consumption switch.
bool pack_cache_enabled_impl() {
  int v = g_pack_cache.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("HETGRID_PACK_CACHE");
    v = (env != nullptr && std::string_view(env) == "0") ? 0 : 1;
    g_pack_cache.store(v, std::memory_order_relaxed);
  }
  return v != 0;
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

  if (trans_a == Trans::No && trans_b == Trans::No) {
    gemm_nn_blocked(alpha, a, b, c);
    return;
  }

  // Transposed paths always run the packed microkernel path (transposition
  // happens in the pack), never a naive accumulator loop: every transpose
  // combination then keeps the dispatched microkernel's per-element
  // arithmetic, exactly like gemm_cached's transposed calls.
  gemm_packed_path(trans_a, trans_b, alpha, a, PackTag{}, b, PackTag{}, c,
                   nullptr);
}

void gemm_update(const ConstMatrixView& a, const ConstMatrixView& b,
                 MatrixView c) {
  gemm(Trans::No, Trans::No, 1.0, a, b, 1.0, c);
}

void gemm_cached(Trans trans_a, Trans trans_b, double alpha,
                 const ConstMatrixView& a, PackTag a_tag,
                 const ConstMatrixView& b, PackTag b_tag, double beta,
                 MatrixView c, PackedPanelCache* cache) {
  check_shapes(trans_a, trans_b, a, b, c);
  const std::size_t k = trans_a == Trans::No ? a.cols() : a.rows();
  // Counted exactly like plain gemm, so swapping a call site
  // between gemm and gemm_cached never moves a metric fingerprint.
  count_gemm_call(trans_a, trans_b, alpha, c.rows(), c.cols(), k);
  scale_c(beta, c);
  if (alpha == 0.0) return;
  if (cache != nullptr && !pack_cache_enabled_impl()) cache = nullptr;
  const bool tagged = cache != nullptr && (a_tag.valid || b_tag.valid);
  if (trans_a == Trans::No && trans_b == Trans::No &&
      (is_small_nn(c.rows(), c.cols(), k) || !tagged)) {
    // Exactly the plain-gemm path: the small fast path gains nothing from
    // caching, and an untagged large call packs per-tile streaming (no
    // whole-operand copy) — both bit-identical to the packed path anyway.
    gemm_nn_blocked(alpha, a, b, c);
    return;
  }
  gemm_packed_path(trans_a, trans_b, alpha, a, a_tag, b, b_tag, c,
                   tagged ? cache : nullptr);
}

PackedPanel gemm_pack_a(Trans trans_a, const ConstMatrixView& a) {
  PackedPanel p;
  build_pack_a(trans_a, a, active_kernel(), p);
  return p;
}

PackedPanel gemm_pack_b(Trans trans_b, double alpha,
                        const ConstMatrixView& b) {
  PackedPanel p;
  build_pack_b(trans_b, alpha, b, active_kernel(), p);
  return p;
}

void gemm_prepacked(const PackedPanel& packed_a, const PackedPanel& packed_b,
                    MatrixView c) {
  // No metric counting: this is the compute half of a call the caller has
  // already accounted for (or chosen not to) when it packed the operands.
  packed_compute(packed_a, packed_b, c);
}

bool gemm_set_pack_cache(bool enabled) {
  const bool prev = pack_cache_enabled_impl();
  g_pack_cache.store(enabled ? 1 : 0, std::memory_order_relaxed);
  return prev;
}

bool gemm_pack_cache_enabled() { return pack_cache_enabled_impl(); }

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
