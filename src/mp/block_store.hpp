// Per-processor distributed block storage.
//
// Each processor holds the blocks its distribution assigns to it and
// transient copies of blocks it received (broadcast panels). Nothing is
// shared: the message-passing runtime moves data exclusively through
// explicit send/receive pairs, so a kernel that "forgets" a communication
// step fails loudly with a missing-block error instead of silently reading
// another processor's memory — exactly the property that makes the
// distributed-memory port of a kernel trustworthy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <variant>
#include <vector>

#include "matrix/matrix.hpp"
#include "util/rng.hpp"

namespace hetgrid {

/// Global coordinates of an r x r block.
struct BlockKey {
  std::size_t row = 0;
  std::size_t col = 0;

  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

/// Hash for BlockKey. The seed version xor-folded the column into a
/// row-only product, so structured key sweeps (a block column, a tagged
/// panel) perturbed only the low bits and chained into few buckets; the
/// avalanche mix spreads every sweep pattern across the whole table.
struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    return static_cast<std::size_t>(
        mix64((static_cast<std::uint64_t>(k.row) << 32) ^
              static_cast<std::uint64_t>(k.col)));
  }
};

/// One processor's local memory: a map from global block coordinates to
/// the blocks it holds. A processor's owned blocks are views bound to the
/// caller's matrices, so the kernels compute on them in place, and a
/// migration hands the binding itself to the new owner (hand_over); only
/// transients own a buffer here: received copies and the blocks a kernel
/// creates (QR's T, V0, W and Y). Freed buffers (transient copies erased
/// at step boundaries) are pooled per shape, up to kPoolCapPerShape each,
/// for acquire(); a step that needs more buffers of a shape than the pool
/// holds allocates (block_store.pool_misses).
class BlockStore {
 public:
  /// Inserts (or overwrites) a block buffer; the payload is moved in.
  void put(BlockKey key, Matrix block);

  /// Binds `key` to memory the store does not own (a block of the
  /// caller's matrix), with no copy: at() writes through to it.
  void bind(BlockKey key, MatrixView block);
  /// Binds `key` read-only: at() on it fails an internal check.
  void bind(BlockKey key, ConstMatrixView block);

  /// Mutable access; throws PreconditionError if the block is not local —
  /// the runtime equivalent of dereferencing a remote pointer.
  MatrixView at(BlockKey key);
  /// Read access to any local block, read-only bindings included.
  ConstMatrixView read(BlockKey key) const;

  bool contains(BlockKey key) const { return blocks_.count(key) > 0; }

  /// Moves the binding of `key`, read-only or not, from this store to
  /// `to`, with no copy: `to` then reaches the same caller block. Fails an
  /// internal check unless this store binds `key` and `to` holds no entry
  /// for it, so no two stores ever bind one caller block.
  void hand_over(BlockKey key, BlockStore& to);

  /// Removes a block. A buffer is retained in the shape pool for
  /// acquire(); a binding is just dropped, as its memory is the caller's.
  void erase(BlockKey key);

  /// Returns an uninitialized rows x cols block, recycling a pooled buffer
  /// of that exact shape when one is available (contents are stale, or
  /// never written on a miss — the caller must overwrite them, typically
  /// via copy_from or a beta = 0 gemm).
  Matrix acquire(std::size_t rows, std::size_t cols);

  /// Pre-sizes the hash table for `blocks` resident blocks so scatter and
  /// panel traffic do not rehash mid-run.
  void reserve(std::size_t blocks);

  std::size_t size() const { return blocks_.size(); }
  std::size_t pooled() const;

  /// Per-shape cap on pooled free buffers. erase() drops (frees) a payload
  /// instead of pooling it once its shape's pool is full, counting
  /// block_store.pool_evictions — the bound that keeps long runs from
  /// accumulating every transient shape they ever saw.
  static constexpr std::size_t kPoolCapPerShape = 8;

 private:
  // A buffer of the store's own, a writable binding, or a read-only one.
  using Entry = std::variant<Matrix, MatrixView, ConstMatrixView>;

  std::unordered_map<BlockKey, Entry, BlockKeyHash> blocks_;
  // Freed payloads keyed by (rows << 32) ^ cols, at most kPoolCapPerShape
  // each.
  std::unordered_map<std::uint64_t, std::vector<Matrix>> pool_;
};

}  // namespace hetgrid
