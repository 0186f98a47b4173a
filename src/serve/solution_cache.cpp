#include "serve/solution_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace hetgrid::serve {

namespace {

/// splitmix64 finalizer — the repo's hashing discipline (mp/block_store).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

CanonicalPlacement canonicalize_placement(std::size_t p, std::size_t q,
                                          const std::vector<double>& times) {
  const std::size_t n = p * q;
  HG_CHECK(n > 0 && times.size() == n,
           "canonicalize: times size " << times.size() << " != " << p << "x"
                                       << q);
  CanonicalPlacement out;
  out.p = p;
  out.q = q;

  // Stable value sort with index tie-break: deterministic even when the
  // pool holds duplicate cycle-times.
  out.sorted_to_request.resize(n);
  std::iota(out.sorted_to_request.begin(), out.sorted_to_request.end(), 0u);
  std::sort(out.sorted_to_request.begin(), out.sorted_to_request.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (times[a] != times[b]) return times[a] < times[b];
              return a < b;
            });
  out.sorted.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    out.sorted[k] = times[out.sorted_to_request[k]];

  // Ascending-order summation: permutation-invariant bits for the scale,
  // hence for every quotient below.
  double sum = 0.0;
  for (double v : out.sorted) sum += v;
  HG_CHECK(std::isfinite(sum) && sum > 0.0,
           "canonicalize: cycle-time sum is not positive and finite");
  out.scale = sum;
  out.unit.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.unit[k] = out.sorted[k] / sum;

  std::uint64_t h = mix64((static_cast<std::uint64_t>(p) << 32) ^
                          static_cast<std::uint64_t>(q));
  for (double v : out.unit) h = mix64(h ^ std::bit_cast<std::uint64_t>(v));
  out.hash = h;
  return out;
}

bool same_key(const CachedSolution& entry, const CanonicalPlacement& key) {
  return entry.p == key.p && entry.q == key.q && entry.unit == key.unit;
}

SolutionCache::SolutionCache(std::size_t shards) {
  HG_CHECK(shards <= kMaxShards, "solution cache shards must be <= "
                                     << kMaxShards << ", got " << shards);
  std::size_t n = 1;
  while (n < std::max<std::size_t>(shards, 1)) n <<= 1;
  shards_ = std::vector<Shard>(n);
}

std::optional<CachedSolution> SolutionCache::lookup(
    const CanonicalPlacement& key) const {
  const Shard& shard = shard_for(key.hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [hash, entry] : shard.entries) {
      if (hash == key.hash && same_key(entry, key)) {
        metric_count("serve.cache.hits");
        return entry;
      }
    }
  }
  metric_count("serve.cache.misses");
  return std::nullopt;
}

bool SolutionCache::insert_or_upgrade(CachedSolution sol) {
  const std::size_t n = sol.p * sol.q;
  HG_CHECK(sol.unit.size() == n && sol.r.size() == sol.p &&
               sol.c.size() == sol.q && sol.arrangement.size() == n,
           "cache entry shape mismatch");
  CanonicalPlacement key;  // only the fields same_key/hash_for consume
  key.p = sol.p;
  key.q = sol.q;
  key.unit = sol.unit;
  std::uint64_t h = mix64((static_cast<std::uint64_t>(sol.p) << 32) ^
                          static_cast<std::uint64_t>(sol.q));
  for (double v : sol.unit) h = mix64(h ^ std::bit_cast<std::uint64_t>(v));
  key.hash = h;

  Shard& shard = shard_for(h);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto& [hash, entry] : shard.entries) {
    if (hash != h || !same_key(entry, key)) continue;
    // Upgrade policy: exact replaces heuristic (as long as it is not
    // worse), and a strictly better objective replaces anything. Never
    // install a worse unit_objective — previously served responses stay
    // lower bounds on what the cache answers.
    const bool better_kind = sol.exact && !entry.exact;
    const bool improves = sol.unit_objective() > entry.unit_objective();
    const bool not_worse = sol.unit_objective() >= entry.unit_objective();
    if ((better_kind && not_worse) || improves) {
      sol.upgraded = true;
      entry = std::move(sol);
      metric_count("serve.cache.upgrades");
      return true;
    }
    return false;
  }
  shard.entries.emplace_back(h, std::move(sol));
  metric_count("serve.cache.inserts");
  return true;
}

std::size_t SolutionCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace hetgrid::serve
