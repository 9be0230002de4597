#pragma once

#include <array>
#include <cstdint>

/// Deterministic, fast pseudo-random number generation.
///
/// All stochastic behaviour in the simulator (synthetic traces, tie-breaks)
/// flows through these generators so that a (config, seed) pair fully
/// determines a simulation run.
namespace mflush {

/// SplitMix64 — used to expand a single seed into stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — main workhorse generator.
class Xoshiro256 {
 public:
  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  constexpr std::uint64_t next() noexcept {
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

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) (bound > 0). Uses the fast Lemire-style
  /// multiply-shift reduction; bias is negligible for simulation purposes.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Bernoulli trial with probability p.
  constexpr bool chance(double p) noexcept { return next_double() < p; }

  /// Geometric-ish positive integer with mean approximately `mean`
  /// (clamped to [1, cap]). Used for dependency distances.
  constexpr std::uint64_t geometric(double mean, std::uint64_t cap) noexcept {
    if (mean <= 1.0) return 1;
    // Inverse-CDF sampling of a geometric with success prob 1/mean.
    const double p = 1.0 / mean;
    double u = next_double();
    // Avoid log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    // ceil(log(u)/log(1-p)) without <cmath> at constexpr: iterate (bounded).
    std::uint64_t k = 1;
    double q = 1.0 - p;
    double acc = q;
    while (k < cap && u < acc) {
      acc *= q;
      ++k;
    }
    return k;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// The whole stream state: snapshots memcpy the generator as one raw
  /// record (common/archive.h).
  std::array<std::uint64_t, 4> s_;
};

/// Derive a stream seed that is well separated per (domain, index).
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::uint64_t root, std::uint64_t domain, std::uint64_t index) noexcept {
  SplitMix64 sm(root ^ (domain * 0x9e3779b97f4a7c15ull) ^
                (index * 0xd1b54a32d192ed03ull));
  sm.next();
  return sm.next();
}

}  // namespace mflush
