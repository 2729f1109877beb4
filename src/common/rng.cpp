#include "common/rng.hpp"

#include <cmath>

namespace vrl {
namespace {

/// SplitMix64 step, used only for seeding.
std::uint64_t SplitMix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
  // xoshiro requires a nonzero state; SplitMix64 of any seed yields one with
  // overwhelming probability, but guard against the pathological case.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::BernoulliThreshold(double p) noexcept {
  constexpr double kScale = 0x1.0p53;
  if (!(p > 0.0)) {
    return 0;
  }
  if (p >= 1.0) {
    return std::uint64_t{1} << 53;
  }
  return static_cast<std::uint64_t>(std::ceil(p * kScale));
}

double Rng::Uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * UniformDouble();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) noexcept {
  // Lemire-style rejection-free-in-the-common-case bounded generation would
  // also work; plain rejection keeps the implementation obviously unbiased.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t value = (*this)();
  while (value >= limit) {
    value = (*this)();
  }
  return value % n;
}

double Rng::Normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller. u1 in (0,1] to avoid log(0).
  double u1 = UniformDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = UniformDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) noexcept {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) noexcept {
  return std::exp(Normal(mu, sigma));
}

double Rng::Exponential(double rate) noexcept {
  double u = UniformDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -std::log(u) / rate;
}

Rng Rng::Fork(std::uint64_t stream_id) noexcept {
  const std::uint64_t base = (*this)();
  // Mix the stream id so Fork(0), Fork(1), ... give unrelated streams even
  // when called from the same parent state.
  return Rng(base ^ (stream_id * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
}

}  // namespace vrl
