// Capacity-bounded cache of packed gemm operand panels.
//
// The MP runtime's trailing updates call one block-GEMM per owned block, and
// every one of those calls re-reads the same pivot row/column panel blocks.
// Without a cache each call re-packs its operands into kernel-blocked tiles
// (pure data movement, but O(block^2) of it per call). A PackedPanelCache
// amortizes that: the first call to touch a panel block packs it once
// (gemm.pack_misses) and every later call in the step reuses the pack
// (gemm.pack_hits).
//
// Keying and invalidation: an entry is keyed on (operand id, version, pack
// metadata). The id names the operand (the MP runtime uses the block key);
// the version is a monotone counter the owner bumps on every write to the
// underlying data (BlockStore::bump_version, called at op-emission time on
// the host thread). A pack of stale data is therefore never *returned* — it
// is simply unreachable, because every reader asks for the current version —
// which is what makes the scheme safe under the DAG scheduler's reordering:
// the version a task looks up is captured at emission, and the task-graph
// dependencies guarantee the block's bytes match that version when the task
// runs. Stale entries age out through the LRU bound.
//
// Bit-identity: a packed panel is a pure copy of the operand (plus an exact
// alpha fold for B panels), so cache hit vs miss can never change a computed
// bit — asserted end-to-end in tests across {cache on, off} x kernels x
// thread counts.
//
// Thread safety: get() may be called concurrently by DAG-scheduler workers.
// A mutex guards the map; the pack itself is built outside the lock (two
// concurrent misses both build — byte-identical — panels and the first
// insert wins). Entries are handed out as shared_ptr so eviction can never
// free a panel a running kernel still reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace hetgrid {

/// One whole gemm operand packed into kernel-blocked tiles (see
/// gemm_pack_a / gemm_pack_b in matrix/gemm.hpp). `rows` x `cols` is the
/// op-shape and `mc`/`kc`/`nc` the kernel blocking the tiles and offsets
/// were computed for, so a pack can never silently be consumed by a kernel
/// with different geometry.
struct PackedPanel {
  std::size_t rows = 0, cols = 0;
  std::size_t mc = 0, kc = 0, nc = 0;
  std::vector<std::size_t> tile_off;  // tile start offsets into data
  std::vector<double> data;

  std::size_t doubles() const { return data.size(); }
};

/// LRU cache of PackedPanels, bounded by total doubles held.
class PackedPanelCache {
 public:
  /// Default bound: 1M doubles (8 MiB) per cache — a few dozen packed
  /// 256-wide blocks, far more than one trailing-update sweep touches.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit PackedPanelCache(std::size_t capacity_doubles = kDefaultCapacity)
      : capacity_(capacity_doubles) {}

  /// Full entry key. `id` names the operand, `version` its write epoch;
  /// `meta` encodes everything else that changes the packed bytes or their
  /// layout (operand side, transpose, kernel blocking); `alpha_bits` the
  /// bit pattern of the alpha folded into B packs (0 for A packs).
  struct Key {
    std::uint64_t id = 0;
    std::uint64_t version = 0;
    std::uint64_t meta = 0;
    std::uint64_t alpha_bits = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Returns the cached pack for `key`, building it with `build` on a miss
  /// (outside the lock). Counts gemm.pack_hits / gemm.pack_misses.
  std::shared_ptr<const PackedPanel> get(
      const Key& key, const std::function<PackedPanel()>& build);

  std::size_t size() const;            // entries held
  std::size_t held_doubles() const;    // total payload doubles held
  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t capacity_doubles);  // evicts down to fit
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const PackedPanel> panel;
  };
  using LruList = std::list<Entry>;

  void evict_to_fit_locked();  // requires mu_ held

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t held_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
};

}  // namespace hetgrid
