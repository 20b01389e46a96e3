// Deterministic, seedable pseudo-random number generation.
//
// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
// reimplemented here so that simulator runs are reproducible across
// platforms and standard-library versions (std::mt19937 distributions are
// not bit-portable).
#pragma once

#include <cstdint>

namespace repro::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the four state words; this is
    // the initialization recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
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

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) { return next_u64() % n; }

  // Standard normal via Box-Muller (polar rejection-free variant using both
  // trig branches would cache one value; keep it stateless and simple).
  double normal();

  // Exponential with the given mean.
  double exponential(double mean);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

// Mixes several integers into one seed, for making independent per-entity
// streams (e.g. per (run, src, dst) message jitter) from a master seed.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b = 0x243f6a8885a308d3ULL,
                       std::uint64_t c = 0x13198a2e03707344ULL);

}  // namespace repro::util
