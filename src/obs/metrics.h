// Metrics registry: labeled counter / gauge / histogram families.
//
// Naming convention is `subsystem.verb.unit` (e.g. "bus.produce.micros",
// "mem.fault.cow.count", "store.snapshot.used_bytes"); an optional label
// distinguishes members of one family ("bus.produce.count{topic=...}").
// Instruments are created on first use and live for the registry's lifetime
// (std::map nodes — pointers handed to hot paths stay valid), so a subsystem
// resolves its instruments once and then pays one add per event.
//
// Like the tracer, recording is pure observation: metrics never touch the
// simulated clock, so instrumented and uninstrumented runs are bit-identical.
#ifndef FIREWORKS_SRC_OBS_METRICS_H_
#define FIREWORKS_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/base/stats.h"

namespace fwobs {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time level (queue depth, resident bytes).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Latency/size distribution: exact order statistics from SampleStats plus the
// power-of-two LogHistogram for cheap tail bounds and compact rendering.
class Histogram {
 public:
  void Observe(uint64_t value) {
    log_.Add(value);
    stats_.Add(static_cast<double>(value));
  }

  uint64_t count() const { return log_.count(); }
  const fwbase::SampleStats& stats() const { return stats_; }
  void Reset() {
    log_ = fwbase::LogHistogram();
    stats_ = fwbase::SampleStats();
  }

 private:
  fwbase::LogHistogram log_;
  fwbase::SampleStats stats_;
};

class MetricsRegistry {
 public:
  // Find-or-create; the returned reference stays valid for the registry's
  // lifetime. Asking for the same (name, label) with a different instrument
  // kind is a programming error and FW_CHECKs.
  Counter& GetCounter(const std::string& name, const std::string& label = std::string());
  Gauge& GetGauge(const std::string& name, const std::string& label = std::string());
  Histogram& GetHistogram(const std::string& name, const std::string& label = std::string());

  // Read-only lookups for tests and dumps: value of an existing instrument,
  // or the zero value if it was never touched.
  uint64_t CounterValue(const std::string& name, const std::string& label = std::string()) const;
  double GaugeValue(const std::string& name, const std::string& label = std::string()) const;
  const Histogram* FindHistogram(const std::string& name,
                                 const std::string& label = std::string()) const;

  // Plain-text dump, one instrument per line, sorted by name.
  std::string ToText() const;

  // Zeroes every instrument but keeps registrations (and outstanding
  // pointers) intact — the snapshot/reset idiom between bench phases.
  void Reset();

  size_t size() const;

 private:
  using Key = std::pair<std::string, std::string>;  // (name, label).

  static std::string RenderKey(const Key& key);

  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace fwobs

#endif  // FIREWORKS_SRC_OBS_METRICS_H_
