// Deterministic RNG for reproducible simulations: xoshiro256** seeded via
// splitmix64. Every stochastic component takes an explicit Rng (or seed) so
// experiment runs are repeatable bit-for-bit.
#pragma once

#include <cstdint>

namespace flexran::util {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }


  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (hi <= lo) return lo;
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>((*this)() % range);
  }

  /// Bernoulli draw.
  bool chance(double probability) { return uniform() < probability; }

  /// Standard normal via Box-Muller (no cached spare; fine for sim rates).
  double normal(double mean = 0.0, double stddev = 1.0);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t state_[4];
};

}  // namespace flexran::util
