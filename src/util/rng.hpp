// Deterministic, fast pseudo-random generation for experiments.
//
// All hetgrid experiments are seeded so that every table/figure regenerates
// bit-identically. The generator is xoshiro256** (public domain algorithm by
// Blackman & Vigna), which is far faster than std::mt19937_64 and has no
// observable bias for our use (uniform reals, small-range integers).
#pragma once

#include <cstdint>
#include <vector>

namespace hetgrid {

/// splitmix64 finalizer (Steele et al.): full-avalanche 64-bit mix. Seeds
/// the Rng and hashes block keys and placement-cache keys.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` via splitmix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// `count` cycle-times drawn uniformly from (eps, 1]; never returns zero
  /// (a zero cycle-time would mean an infinitely fast processor).
  std::vector<double> cycle_times(std::size_t count, double eps = 1e-3);

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace hetgrid
