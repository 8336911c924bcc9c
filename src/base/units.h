// Time and size units used throughout the simulator.
//
// All simulated time is kept in integer nanoseconds (Duration / SimTime below);
// all memory sizes are kept in bytes. Page granularity is fixed at 4 KiB, the
// granularity at which the host memory model tracks sharing.
#ifndef FIREWORKS_SRC_BASE_UNITS_H_
#define FIREWORKS_SRC_BASE_UNITS_H_

#include <cstdint>
#include <string>
#include <type_traits>

namespace fwbase {

// ---------------------------------------------------------------------------
// Sizes.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

// The host memory model tracks sharing at classic 4 KiB page granularity.
inline constexpr uint64_t kPageSize = 4 * kKiB;

// Rounds `bytes` up to whole pages.
constexpr uint64_t PagesFor(uint64_t bytes) { return (bytes + kPageSize - 1) / kPageSize; }

// ---------------------------------------------------------------------------
// Duration: a signed span of simulated time, in nanoseconds.
// ---------------------------------------------------------------------------

class Duration {
 public:
  constexpr Duration() : ns_(0) {}

  static constexpr Duration Nanos(int64_t ns) { return Duration(ns); }
  static constexpr Duration Micros(int64_t us) { return Duration(us * 1000); }
  static constexpr Duration Millis(int64_t ms) { return Duration(ms * 1000 * 1000); }
  static constexpr Duration Seconds(int64_t s) { return Duration(s * 1000 * 1000 * 1000); }
  // Fractional constructors for model parameters expressed in natural units.
  static constexpr Duration MillisF(double ms) {
    return Duration(static_cast<int64_t>(ms * 1e6));
  }
  static constexpr Duration SecondsF(double s) { return Duration(static_cast<int64_t>(s * 1e9)); }
  static constexpr Duration Zero() { return Duration(0); }
  static constexpr Duration Max() { return Duration(INT64_MAX); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double micros() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  constexpr Duration operator+(Duration o) const { return Duration(ns_ + o.ns_); }
  constexpr Duration operator-(Duration o) const { return Duration(ns_ - o.ns_); }
  template <typename I>
    requires std::is_integral_v<I>
  constexpr Duration operator*(I k) const {
    return Duration(ns_ * static_cast<int64_t>(k));
  }
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) * k));
  }
  template <typename I>
    requires std::is_integral_v<I>
  constexpr Duration operator/(I k) const {
    return Duration(ns_ / static_cast<int64_t>(k));
  }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  // Human-readable rendering with an auto-selected unit, e.g. "12.4ms".
  std::string ToString() const;

 private:
  constexpr explicit Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

template <typename I>
  requires std::is_integral_v<I>
constexpr Duration operator*(I k, Duration d) {
  return d * k;
}
constexpr Duration operator*(double k, Duration d) { return d * k; }

// Time to move `bytes` at `bytes_per_sec`: the one bandwidth-to-time
// conversion every disk, network and bus cost model charges.
constexpr Duration TransferTime(uint64_t bytes, double bytes_per_sec) {
  return Duration::SecondsF(static_cast<double>(bytes) / bytes_per_sec);
}

// ---------------------------------------------------------------------------
// SimTime: an absolute point on the simulated clock.
// ---------------------------------------------------------------------------

class SimTime {
 public:
  constexpr SimTime() : ns_(0) {}
  static constexpr SimTime Zero() { return SimTime(0); }
  static constexpr SimTime Max() { return SimTime(INT64_MAX); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr SimTime operator+(Duration d) const { return SimTime(ns_ + d.nanos()); }
  constexpr SimTime operator-(Duration d) const { return SimTime(ns_ - d.nanos()); }
  constexpr Duration operator-(SimTime o) const { return Duration::Nanos(ns_ - o.ns_); }
  constexpr auto operator<=>(const SimTime&) const = default;

  std::string ToString() const;

 private:
  constexpr explicit SimTime(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) { return Duration::Nanos(v); }
constexpr Duration operator""_us(unsigned long long v) { return Duration::Micros(v); }
constexpr Duration operator""_ms(unsigned long long v) { return Duration::Millis(v); }
constexpr Duration operator""_s(unsigned long long v) { return Duration::Seconds(v); }
constexpr uint64_t operator""_KiB(unsigned long long v) { return v * kKiB; }
constexpr uint64_t operator""_MiB(unsigned long long v) { return v * kMiB; }
constexpr uint64_t operator""_GiB(unsigned long long v) { return v * kGiB; }
}  // namespace literals

// Renders a byte count with an auto-selected unit, e.g. "512.0 MiB".
std::string BytesToString(uint64_t bytes);

}  // namespace fwbase

#endif  // FIREWORKS_SRC_BASE_UNITS_H_
