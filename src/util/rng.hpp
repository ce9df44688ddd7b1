// Deterministic random number generation.
//
// Every stochastic component takes an explicit Rng (or a seed) so that whole
// experiments replay bit-for-bit. The generator is xoshiro256** seeded via
// SplitMix64; distribution code is written here by hand because libstdc++'s
// std::*_distribution results are not guaranteed stable across versions.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace lsl {

/// xoshiro256** PRNG with explicit, reproducible seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Skip `n` values: the state `n` calls of next_u64() would leave.
  void discard(std::uint64_t n);

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic, stateless pairing).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal such that exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial.
  bool chance(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Pick an index in [0, n) uniformly.
  std::size_t pick_index(std::size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = pick_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream; `salt` decorrelates siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  /// Stable 64-bit hash of a string, for deriving per-entity seeds.
  [[nodiscard]] static std::uint64_t hash(std::string_view s);

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
};

}  // namespace lsl
