// Canonicalizing solution cache for the placement service.
//
// The solvers behind the service (solve_optimal_arrangement,
// solve_heuristic) are functions of the *multiset* of cycle-times plus the
// grid shape: both begin by sorting the pool and searching arrangements,
// which Theorem 1 licenses — an optimal arrangement always exists among
// the non-decreasing ones, so the sorted pool is a canonical
// representative of every permutation of a request grid (row/column
// permutations included). Scale is the other degree of freedom: replacing
// t by alpha*t turns any optimal (r, c) into an optimal (r/alpha, c) with
// objective obj2/alpha, so scale-equivalent requests can also share one
// entry.
//
// The canonical key is therefore (p, q, sorted pool scaled to unit sum):
//   * the sum is accumulated over the *sorted* values, so it — and every
//     quotient t_k/sum — is bit-identical for any permutation of the
//     request;
//   * scale equivalence is exact whenever the scaled times are themselves
//     exact (integer grids under integer scalings, any grid under
//     power-of-two scalings): both sides then divide the same real
//     numbers and IEEE division rounds them to the same doubles. A
//     scaling that perturbs the times by rounding degrades to a harmless
//     cache miss, never to a wrong answer, because entries are matched by
//     the full key vector, not just its hash.
//
// Entries store the solution of the *raw sorted* pool (never a rescaled
// one), so a cold request is answered bit-identically to a direct solver
// call; scale-equivalent hits divide the stored shares by the scale ratio
// on the way out. Heuristic entries carry an upgrade path: an exact
// solution replaces them only if its (scale-normalized) objective is at
// least as good, so a client never observes the served objective getting
// worse (tests/test_serve.cpp).
//
// Concurrency: the table is split into power-of-two shards addressed by
// the top key-hash bits, each guarded by its own mutex (striped locking),
// so concurrent lookups of unrelated keys do not contend. Hit/miss/
// upgrade/insert counts feed obs/metrics under "serve.cache.*".
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace hetgrid::serve {

/// The canonical form of one request grid: shape, sorted pool, unit-sum
/// scaled key material, and the maps back to the caller's layout.
struct CanonicalPlacement {
  std::size_t p = 0;
  std::size_t q = 0;
  /// Raw cycle-times sorted ascending — what the solvers run on.
  std::vector<double> sorted;
  /// sorted[k] / scale: the permutation- and scale-invariant key material.
  std::vector<double> unit;
  /// Sum of the sorted values (accumulated ascending, so the same doubles
  /// in any request order produce the same bits).
  double scale = 0.0;
  /// sorted_to_request[k] = index into the request's row-major grid of the
  /// k-th smallest cycle-time (ties broken by request index, so the map is
  /// deterministic for duplicates).
  std::vector<std::uint32_t> sorted_to_request;
  /// splitmix64-chained hash of (p, q, unit bit patterns).
  std::uint64_t hash = 0;
};

/// Canonicalizes a request grid. Requires times.size() == p*q and every
/// entry positive and finite (the server validates first).
CanonicalPlacement canonicalize_placement(std::size_t p, std::size_t q,
                                          const std::vector<double>& times);

/// One cached solution, in canonical (sorted-pool) coordinates.
struct CachedSolution {
  std::size_t p = 0;
  std::size_t q = 0;
  std::vector<double> unit;  // full key material (matched exactly)
  double scale = 0.0;        // scale of the pool this entry was solved on
  bool exact = false;        // solver that produced r/c
  bool upgraded = false;     // a refinement replaced the original entry
  double obj2 = 0.0;         // objective for the raw sorted pool at `scale`
  std::vector<double> r;     // p row shares for `arrangement`
  std::vector<double> c;     // q column shares
  /// arrangement[i*q + j] = index into the sorted pool of the processor
  /// placed at slot (i, j) by the solver.
  std::vector<std::uint32_t> arrangement;

  /// Objective rescaled to the unit-sum grid — the scale-free quantity two
  /// entries for the same key are compared by.
  double unit_objective() const { return obj2 * scale; }
};

class SolutionCache {
 public:
  /// Most shards the index can address: shard_for() reads 16 hash bits.
  static constexpr std::size_t kMaxShards = std::size_t{1} << 16;

  /// `shards` is rounded up to a power of two, minimum 1; more than
  /// kMaxShards throws PreconditionError.
  explicit SolutionCache(std::size_t shards = 16);

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Returns a copy of the entry for `key` (copying keeps the shard lock
  /// scope tiny), or nullopt on miss. Counts serve.cache.hits / .misses.
  std::optional<CachedSolution> lookup(const CanonicalPlacement& key) const;

  /// Inserts `sol`, or upgrades the existing entry if `sol` is exact where
  /// the entry is heuristic (or strictly better on unit_objective). An
  /// upgrade never installs a worse unit_objective — the monotone-serving
  /// guarantee. Returns true if the table changed.
  bool insert_or_upgrade(CachedSolution sol);

  std::size_t size() const;
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    // Open chaining on the full 64-bit hash; entries matched by key vector.
    std::vector<std::pair<std::uint64_t, CachedSolution>> entries;
  };

  const Shard& shard_for(std::uint64_t hash) const {
    return shards_[(hash >> 48) & (shards_.size() - 1)];
  }
  Shard& shard_for(std::uint64_t hash) {
    return shards_[(hash >> 48) & (shards_.size() - 1)];
  }

  std::vector<Shard> shards_;
};

/// True if the two solutions refer to the same canonical key.
bool same_key(const CachedSolution& entry, const CanonicalPlacement& key);

}  // namespace hetgrid::serve
