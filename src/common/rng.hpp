#pragma once

#include <cstdint>
#include <limits>

/// \file rng.hpp
/// Deterministic pseudo-random number generation.
///
/// Every stochastic component in the library (retention-time sampling, trace
/// synthesis, Monte-Carlo data patterns) draws from this generator so that a
/// given seed reproduces a bit-identical experiment.  We implement
/// xoshiro256** directly instead of using std::mt19937_64 because the
/// standard does not pin down distribution implementations across library
/// vendors, and reproducibility across toolchains is a goal of this repo.

namespace vrl {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// with SplitMix64 seeding.  Deterministic across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = RotL(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double UniformDouble() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n) (n must be > 0). Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t UniformInt(std::uint64_t n) noexcept;

  /// Standard normal variate (Box–Muller; caches the second value).
  double Normal() noexcept;

  /// Normal with mean/stddev.
  double Normal(double mean, double stddev) noexcept;

  /// Lognormal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma) noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p) noexcept { return UniformDouble() < p; }

  /// The integer threshold of Bernoulli(p): UniformDouble() is k * 2^-53
  /// for the draw's 53 high bits k, and k * 2^-53 < p exactly when
  /// k < ceil(p * 2^53) (the scaling by 2^53 is exact).  0 for p <= 0 or
  /// NaN, 2^53 for p >= 1.
  static std::uint64_t BernoulliThreshold(double p) noexcept;

  /// Bernoulli(p) for `threshold` == BernoulliThreshold(p): the same draw,
  /// the same result, without the conversion to double.
  bool BernoulliBelow(std::uint64_t threshold) noexcept {
    return ((*this)() >> 11) < threshold;
  }

  /// Exponential variate with the given rate (lambda > 0).
  double Exponential(double rate) noexcept;

  /// Forks an independent stream: deterministic function of the current
  /// state and `stream_id`, without advancing this generator's own sequence
  /// more than once.
  Rng Fork(std::uint64_t stream_id) noexcept;

 private:
  static constexpr std::uint64_t RotL(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace vrl
