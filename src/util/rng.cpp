#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace lsl {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  seed_ = seed;
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
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

void Rng::discard(std::uint64_t n) {
  for (; n > 0; --n) {
    next_u64();
  }
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  LSL_ASSERT(n > 0);
  // Lemire's unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LSL_ASSERT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller; draws two uniforms per call, discards the second variate so
  // the stream position is a pure function of call count.
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return next_double() < p;
}

double Rng::exponential(double mean) {
  LSL_ASSERT(mean > 0.0);
  double u = next_double();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

std::size_t Rng::pick_index(std::size_t n) {
  return static_cast<std::size_t>(next_below(n));
}

Rng Rng::fork(std::uint64_t salt) const {
  std::uint64_t sm = seed_ ^ (salt * 0x9E3779B97F4A7C15ULL + 0x1234567);
  return Rng{splitmix64(sm)};
}

std::uint64_t Rng::hash(std::string_view s) {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace lsl
