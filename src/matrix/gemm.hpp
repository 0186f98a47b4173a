// General matrix multiply kernels.
//
// gemm computes C := alpha * op(A) * op(B) + beta * C with a cache-blocked
// triple loop (jik order, column-major friendly). This is the compute kernel
// the distributed outer-product algorithm calls on each local block update.
#pragma once

#include <cstdint>
#include <string_view>

#include "matrix/matrix.hpp"

namespace hetgrid {

class PackedPanelCache;
struct PackedPanel;

enum class Trans { No, Yes };

/// C := alpha * op(A) * op(B) + beta * C.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n.
/// The no-transpose path is cache-blocked with a branch-free saxpy inner
/// loop; problems larger than one tile additionally pack the A/B tiles
/// into contiguous buffers (pure data movement — the floating-point
/// operation sequence per C element is identical either way). Transposed
/// operands are handled by the pack alone (the tiles are copied through
/// op()), so every transpose combination runs on the same dispatched
/// microkernel and inherits its scalar-vs-SIMD bit-identity.
void gemm(Trans trans_a, Trans trans_b, double alpha, const ConstMatrixView& a,
          const ConstMatrixView& b, double beta, MatrixView c);

/// Name of the packed-tile microkernel gemm would dispatch to right now:
/// "avx2" on an x86-64 host with AVX2 (explicit mul+add vectors — never FMA,
/// whose single rounding would break bit-identity with the scalar kernel),
/// "scalar" otherwise. Every kernel produces bit-identical results; the
/// name only tells you which one is doing it.
const char* gemm_kernel_name();

/// Test hook: force the microkernel dispatch. Accepts "scalar", "avx2", or
/// "auto" (restore runtime detection). Returns false — leaving the current
/// choice untouched — when the named kernel is unknown or unavailable on
/// this host. Takes effect on the next gemm call; not meant to be raced
/// against in-flight gemms. This is the one toggle for the whole microkernel
/// family: the blocked trsm (matrix/trsm.hpp) follows the same choice, so
/// forcing "scalar" proves the entire scalar fallback. "auto" detection can
/// additionally be pinned process-wide with the HETGRID_GEMM_KERNEL
/// environment variable ("scalar" or "avx2", read once at first dispatch) —
/// how CI runs the MP kernel tests on the scalar path.
bool gemm_force_kernel(std::string_view name);

/// Convenience: C += A * B (the rank-k update at the heart of the paper's
/// kernels).
void gemm_update(const ConstMatrixView& a, const ConstMatrixView& b,
                 MatrixView c);

// ---- Packing split / packed-operand reuse ----------------------------------
//
// Packing (copying an operand into contiguous kernel-blocked tiles) is pure
// data movement: the compute loop reads the same bytes in the same order
// whether they were packed this call or three calls ago. These entry points
// split the two so a caller that reuses an operand across many calls — the
// MP runtime's trailing-update sweeps — can pack it once.

/// Names one cached operand for gemm_cached: `id` identifies the underlying
/// data (the MP runtime uses the block key), `version` its write epoch —
/// the owner must bump it on every write (BlockStore::bump_version), which
/// is what keeps a reordering DAG scheduler from ever consuming a stale
/// pack. A default-constructed tag (valid == false) means "do not cache".
struct PackTag {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  bool valid = false;
};

/// C := alpha * op(A) * op(B) + beta * C, arithmetic bit-identical to
/// gemm(...), consulting `cache` for pre-packed operand panels. An operand
/// with a valid tag is looked up by (tag, side, transpose, alpha for B,
/// kernel blocking) and packed into the cache on a miss; a null cache,
/// invalid tag, disabled cache (gemm_set_pack_cache), or a call on the
/// small-problem fast path packs fresh exactly like gemm. Counts the
/// gemm.pack_hits / gemm.pack_misses metrics on cache lookups.
void gemm_cached(Trans trans_a, Trans trans_b, double alpha,
                 const ConstMatrixView& a, PackTag a_tag,
                 const ConstMatrixView& b, PackTag b_tag, double beta,
                 MatrixView c, PackedPanelCache* cache);

/// Packs op(A) (m x k) into kernel-blocked tiles for the currently
/// dispatched kernel. The panel is self-describing (shape + blocking); the
/// compute loop checks it against the active kernel, so a pack can never be
/// consumed with mismatched geometry.
PackedPanel gemm_pack_a(Trans trans_a, const ConstMatrixView& a);

/// Packs alpha * op(B) (k x n) the same way; alpha is folded into the pack
/// (an exact operation for the -1.0/+1.0 the runtimes use — and for any
/// alpha, the same fold the unsplit path performs).
PackedPanel gemm_pack_b(Trans trans_b, double alpha, const ConstMatrixView& b);

/// C := C + packed_a * packed_b over pre-packed panels (alpha already folded
/// into the B pack by gemm_pack_b). Bit-identical to the corresponding
/// gemm(alpha, a, b, 1.0, c) call. Throws PreconditionError if the panels'
/// blocking does not match the active kernel or the shapes disagree.
void gemm_prepacked(const PackedPanel& packed_a, const PackedPanel& packed_b,
                    MatrixView c);

/// Globally enables/disables packed-panel cache consumption (gemm_cached
/// treats every cache as null when disabled). Returns the previous setting.
/// Initial state comes from the HETGRID_PACK_CACHE environment variable
/// ("0" disables; anything else — or unset — enables), so CI can prove the
/// cache-off configuration on every commit. Bit-identity makes this a pure
/// performance toggle.
bool gemm_set_pack_cache(bool enabled);

/// Current pack-cache consumption setting (lazily reads the environment).
bool gemm_pack_cache_enabled();

/// Reference (unblocked, naive) implementation used by tests to validate the
/// blocked kernel.
void gemm_reference(Trans trans_a, Trans trans_b, double alpha,
                    const ConstMatrixView& a, const ConstMatrixView& b,
                    double beta, MatrixView c);

}  // namespace hetgrid
