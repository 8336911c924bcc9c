// Deterministic random number generation for the simulator.
//
// Every stochastic model parameter draws from an explicitly seeded Rng so that
// simulation runs are exactly reproducible. The generator is xoshiro256**,
// seeded through SplitMix64 per the reference implementation.
#ifndef FIREWORKS_SRC_BASE_RNG_H_
#define FIREWORKS_SRC_BASE_RNG_H_

#include <cstdint>

namespace fwbase {

// One SplitMix64 step: advances `state` and returns the next output. Seeds
// xoshiro256** state words.
uint64_t SplitMix64(uint64_t& state);

// One xoshiro256** step over raw state words: advances `s` and returns the
// next output. Rng keeps its words privately; the guest RNG keeps its own in
// guest memory (fwmem::GuestIdentityRecord) so snapshots capture them.
uint64_t Xoshiro256StarStar(uint64_t (&s)[4]);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform on the full 64-bit range.
  uint64_t NextU64();

  // Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  uint64_t UniformU64(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Normal via Box–Muller.
  double Normal(double mean, double stddev);

  // Bernoulli trial.
  bool Chance(double p);

  // Derives an independent child generator (for per-entity streams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fwbase

#endif  // FIREWORKS_SRC_BASE_RNG_H_
