// Deterministic random number generation for the fault-injection simulator.
//
// Every stochastic element in lrt (host failures, workload generators)
// draws from an explicitly seeded generator so that every experiment in
// EXPERIMENTS.md is exactly reproducible.
#ifndef LRT_SUPPORT_RNG_H_
#define LRT_SUPPORT_RNG_H_

#include <cstdint>

namespace lrt {

/// Default seed shared by every stochastic component (fault plans, Monte
/// Carlo campaigns). One constant, one place: experiments that do not
/// override the seed all derive from the same reproducible stream root.
inline constexpr std::uint64_t kDefaultRngSeed = 0x1eda2008;

/// One SplitMix64 absorb-and-finalize step: folds `word` into `state` and
/// avalanches. Chaining absorb() over a key tuple yields a well-mixed
/// 64-bit hash of (seed, key...) — the primitive behind the keyed draws
/// below.
constexpr std::uint64_t absorb(std::uint64_t state, std::uint64_t word) {
  std::uint64_t z = state + 0x9E3779B97F4A7C15ull + word;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless counter-based draw: a uniform 64-bit value that is a pure
/// function of (seed, words...), independent of any generator state and
/// hence of the order draws are made in. The simulation engines key every
/// fault draw by its site (kind, time, entity, attempt), which is what
/// lets the event engine skip instants the tick engine visits and still
/// consume "the same randomness" without replaying a shared stream.
template <typename... Words>
constexpr std::uint64_t keyed_bits(std::uint64_t seed, Words... words) {
  std::uint64_t state = absorb(0x243F6A8885A308D3ull, seed);
  ((state = absorb(state, static_cast<std::uint64_t>(words))), ...);
  return state;
}

/// Uniform double in [0, 1), keyed like keyed_bits().
template <typename... Words>
constexpr double keyed_double(std::uint64_t seed, Words... words) {
  return static_cast<double>(keyed_bits(seed, words...) >> 11) * 0x1.0p-53;
}

/// Keyed Bernoulli trial: true with probability p (clamped to [0,1]).
template <typename... Words>
constexpr bool keyed_bernoulli(double p, std::uint64_t seed, Words... words) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return keyed_double(seed, words...) < p;
}

/// SplitMix64: used to expand a user seed into the xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, 2^256-1 period.
///
/// Satisfies the UniformRandomBitGenerator requirements, so it composes
/// with <random> distributions where convenient.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Creates an independent stream for a child component (e.g. one per
  /// simulated host) so adding components never perturbs others' draws.
  Xoshiro256 split();

 private:
  std::uint64_t state_[4];
};

}  // namespace lrt

#endif  // LRT_SUPPORT_RNG_H_
