#include "src/base/rng.h"

#include <cmath>

#include "src/base/check.h"

namespace fwbase {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Xoshiro256StarStar(uint64_t (&s)[4]) {
  const uint64_t result = Rotl(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() { return Xoshiro256StarStar(s_); }

uint64_t Rng::UniformU64(uint64_t bound) {
  FW_CHECK(bound > 0);
  // Rejection sampling: retry draws that fall into the biased tail.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FW_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  // 53 uniform mantissa bits.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) { return lo + (hi - lo) * UniformDouble(); }

double Rng::Exponential(double mean) {
  FW_CHECK(mean > 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

bool Rng::Chance(double p) { return UniformDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace fwbase
