#include "util/rng.hpp"

#include "util/check.hpp"

namespace hetgrid {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // splitmix64: each word is the mix of the running state, which then
  // advances by the golden-ratio increment.
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = mix64(sm);
    sm += 0x9e3779b97f4a7c15ULL;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  HG_CHECK(lo <= hi, "uniform(lo,hi) needs lo <= hi, got " << lo << "," << hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  HG_CHECK(n > 0, "below(n) needs n > 0");
  // Lemire's rejection-free-in-expectation bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    std::uint64_t threshold = (-n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  HG_CHECK(lo <= hi, "range(lo,hi) needs lo <= hi");
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::vector<double> Rng::cycle_times(std::size_t count, double eps) {
  HG_CHECK(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got " << eps);
  std::vector<double> t(count);
  for (auto& v : t) v = eps + (1.0 - eps) * uniform();
  return t;
}

}  // namespace hetgrid
