// Deterministic, seed-explicit random number generation.
//
// Everything in this library that uses randomness takes an explicit 64-bit
// seed; there is no global RNG state (C++ Core Guidelines I.2).  Two engines
// are provided:
//
//  * SplitMix64 — a tiny stateful engine used to seed/derive streams.
//  * Pcg32      — the main stateful engine for simulations.
//  * counter_hash / CounterRng — *stateless* draws: the k-th value is a pure
//    function of (seed, k).  This mirrors the paper's requirement that the
//    i-th symbol of an exploration sequence be recomputable on demand in
//    O(log n) space, without storing the stream.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace uesr::util {

/// SplitMix64 (Steele, Lea, Flood).  Passes BigCrush; used for seeding.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mix: a high-quality 64-bit hash of (seed, counter).
/// The same (seed, counter) pair always yields the same value.
/// Inline so block evaluation (ExplorationSequence::fill) pipelines the
/// independent per-counter hashes instead of paying a call per element.
inline std::uint64_t counter_hash(std::uint64_t seed, std::uint64_t counter) {
  // Two rounds of SplitMix-style finalization over a seed/counter blend.
  std::uint64_t z = seed ^ (counter * 0x9e3779b97f4a7c15ULL) ^
                    0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Second round keyed differently so (seed, k) and (seed ^ x, k') collisions
  // do not line up trivially.
  z += seed;
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return z ^ (z >> 33);
}

/// PCG32 (O'Neill): small, fast, statistically strong 32-bit generator.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  explicit Pcg32(std::uint64_t seed,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL)
      : state_(0), inc_((stream << 1u) | 1u) {
    next();
    state_ += seed;
    next();
  }

  std::uint32_t next() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (rejection).
  std::uint32_t next_below(std::uint32_t bound) {
    if (bound == 0)
      throw std::invalid_argument("Pcg32::next_below: bound == 0");
    // Lemire-style rejection for an unbiased draw.
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 random bits into [0,1).
    const std::uint64_t hi = next();
    const std::uint64_t lo = next();
    const std::uint64_t bits = ((hi << 32) | lo) >> 11;
    return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// std::uniform_random_bit_generator interface (for std::shuffle etc.)
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next(); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Stateless counter-based generator: value(k) is a pure function of
/// (seed, k).  Suitable for modelling log-space-recomputable streams.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t value(std::uint64_t k) const { return counter_hash(seed_, k); }

  /// k-th draw reduced to [0, bound).  bound must be > 0.  The tiny modulo
  /// bias (< 2^-32 for bound <= 2^32) is irrelevant for our uses.
  std::uint32_t value_below(std::uint64_t k, std::uint32_t bound) const {
    if (bound == 0)
      throw std::invalid_argument("CounterRng::value_below: bound == 0");
    // Multiply-shift reduction of the high 32 bits; bias < bound / 2^32.
    std::uint64_t v = value(k) >> 32;
    return static_cast<std::uint32_t>((v * bound) >> 32);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace uesr::util
