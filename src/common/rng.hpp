/// \file rng.hpp
/// Deterministic, seedable random number generation.
///
/// Every randomized component of the library (synthetic benchmark
/// generation, the Qiskit-style stochastic swap mapper) takes an explicit
/// `Rng` so runs are reproducible; there is no global RNG state.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace qxmap {

/// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
/// workload generation and randomized search (not for cryptography).
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Convenience: derive a 64-bit seed from a string (FNV-1a), so each named
  /// benchmark gets its own stable stream.
  [[nodiscard]] static std::uint64_t seed_from_string(std::string_view name) noexcept;

  /// Next raw 64-bit value. Defined inline: the stochastic-swap mapper
  /// draws m² of these per trial.
  std::uint64_t next_u64() noexcept {
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

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling, so the distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  int next_int(int lo, int hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept { return to_double(next_u64()); }

  /// The double next_double() returns when next_u64() would return `raw`,
  /// for callers that draw raw values now and convert only those they use.
  static double to_double(std::uint64_t raw) noexcept {
    return static_cast<double>(raw >> 11) * 0x1.0p-53;
  }

  /// True with probability `p` (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Fisher–Yates shuffle. Written via a temporary so it also works with
  /// proxy references (std::vector<bool>).
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      const T tmp = v[i - 1];
      v[i - 1] = v[j];
      v[j] = tmp;
    }
  }

  /// Picks a uniformly random element (container must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& v) noexcept {
    return v[static_cast<std::size_t>(next_below(v.size()))];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
};

}  // namespace qxmap
