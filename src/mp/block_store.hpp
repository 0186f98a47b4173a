// Per-processor distributed block storage.
//
// Each processor owns the blocks its distribution assigns to it and holds
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
/// locally stored block contents. Freed payloads (transient panel copies
/// erased at step boundaries) are pooled per shape, up to
/// kPoolCapPerShape each, for acquire(); a step that needs more buffers of
/// a shape than the pool holds allocates (block_store.pool_misses).
class BlockStore {
 public:
  /// Inserts (or overwrites) a block copy; the payload is moved in.
  void put(BlockKey key, Matrix block);

  /// Mutable access; throws PreconditionError if the block is not local —
  /// the runtime equivalent of dereferencing a remote pointer.
  MatrixView at(BlockKey key);
  ConstMatrixView at(BlockKey key) const;

  bool contains(BlockKey key) const { return blocks_.count(key) > 0; }

  /// Removes transient copies (received panels) after a step; the payload
  /// buffer is retained in the shape pool for acquire(). Owned data is
  /// re-put by the kernels as they update it.
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
  std::unordered_map<BlockKey, Matrix, BlockKeyHash> blocks_;
  // Freed payloads keyed by (rows << 32) ^ cols, at most kPoolCapPerShape
  // each.
  std::unordered_map<std::uint64_t, std::vector<Matrix>> pool_;
};

}  // namespace hetgrid
