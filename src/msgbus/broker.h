// A Kafka-like message broker: topics, partitioned append-only logs, offsets.
//
// Fireworks passes invocation arguments through a per-function-instance topic
// (§3.6): the host produces the arguments *before* resuming the snapshot, and
// the resumed guest runs the equivalent of
//     kafkacat -C -b host -t topic<fcID> -o -1 -c 1
// i.e. "consume exactly one record starting from the last offset". The broker
// supports that access pattern natively (ConsumeLast), plus offset-based
// consumption with blocking semantics for chain pipelines.
#ifndef FIREWORKS_SRC_MSGBUS_BROKER_H_
#define FIREWORKS_SRC_MSGBUS_BROKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>
#include <type_traits>

#include "src/base/status.h"
#include "src/obs/observability.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwfault {
class FaultInjector;
}  // namespace fwfault

namespace fwbus {

using fwbase::Duration;
using fwbase::Result;
using fwbase::Status;

struct Record {
  // Declared constructors keep Record non-aggregate: it crosses coroutine
  // boundaries by value (see the toolchain constraint note in simcore/coro.h).
  Record() = default;
  Record(std::string key, std::string value)
      : key(std::move(key)), value(std::move(value)) {}

  std::string key;
  std::string value;
  int64_t offset = -1;

  uint64_t SizeBytes() const { return key.size() + value.size(); }
};
static_assert(!std::is_aggregate_v<Record>);

class Broker {
 public:
  explicit Broker(fwsim::Simulation& sim) : sim_(sim) {}

  // Optional: spans for produce/consume plus "bus.*" metrics (end-to-end
  // produce/consume latencies, outstanding-record queue-depth gauge). The
  // Observability must outlive the broker.
  void set_observability(fwobs::Observability* obs);

  // Optional: lets the injector drop an acked record before it lands, append
  // it twice, or add delivery latency (all inside Produce).
  void set_fault_injector(fwfault::FaultInjector* injector) { injector_ = injector; }

  Status CreateTopic(const std::string& topic, int partitions = 1);
  Status DeleteTopic(const std::string& topic);
  bool HasTopic(const std::string& topic) const;
  int PartitionCount(const std::string& topic) const;

  // Appends a record; returns its offset.
  fwsim::Co<Result<int64_t>> Produce(const std::string& topic, int partition, Record record);

  // Consumes the record at `offset`, blocking until it is available.
  fwsim::Co<Result<Record>> ConsumeAt(const std::string& topic, int partition, int64_t offset);

  // kafkacat -o -1 -c 1: consume one record starting from (end - 1); blocks
  // until the partition is non-empty.
  fwsim::Co<Result<Record>> ConsumeLast(const std::string& topic, int partition);

  // ConsumeLast with a deadline: kDeadlineExceeded if the partition is still
  // empty `timeout` after the call. When a record is already present (the
  // normal host-produces-before-resume pattern) the timing is identical to
  // ConsumeLast. Waiting is a poll loop rather than an event wait so a record
  // that never arrives (e.g. dropped by a fault) cannot strand the consumer.
  fwsim::Co<Result<Record>> ConsumeLastWithTimeout(const std::string& topic, int partition,
                                                   Duration timeout);

  // Non-blocking view of the end offset (next offset to be assigned).
  Result<int64_t> EndOffset(const std::string& topic, int partition) const;

  uint64_t records_produced() const { return records_produced_; }
  uint64_t records_consumed() const { return records_consumed_; }

 private:
  struct Partition {
    explicit Partition(fwsim::Simulation& sim) : appended(sim) {}
    std::vector<Record> log;
    fwsim::SimEvent appended;
  };
  struct Topic {
    std::vector<std::unique_ptr<Partition>> partitions;
  };

  Result<Partition*> FindPartition(const std::string& topic, int partition);
  void RecordConsume(fwbase::SimTime t0);

  fwsim::Simulation& sim_;
  std::map<std::string, Topic> topics_;
  uint64_t records_produced_ = 0;
  uint64_t records_consumed_ = 0;
  fwobs::Tracer* tracer_ = nullptr;
  fwobs::Profiler* profiler_ = nullptr;
  fwobs::ProfScopeId produce_scope_ = 0;
  fwobs::ProfScopeId consume_scope_ = 0;
  fwobs::Counter* produce_counter_ = nullptr;
  fwobs::Counter* consume_counter_ = nullptr;
  fwobs::Histogram* produce_latency_ = nullptr;
  fwobs::Histogram* consume_latency_ = nullptr;
  fwobs::Gauge* depth_gauge_ = nullptr;
  fwfault::FaultInjector* injector_ = nullptr;
};

}  // namespace fwbus

#endif  // FIREWORKS_SRC_MSGBUS_BROKER_H_
