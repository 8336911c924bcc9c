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
  // `obs` receives spans for produce/consume plus "bus.*" metrics (counts,
  // end-to-end produce/consume latencies, outstanding-record queue-depth
  // gauge). `injector` may drop an acked record before it lands, append it
  // twice, or add delivery latency (all inside Produce). Both must outlive
  // the broker. Each Observability has exactly one Broker: the depth gauge
  // subtracts the registry's bus.consume.count from this broker's own
  // records_produced().
  Broker(fwsim::Simulation& sim, fwobs::Observability& obs, fwfault::FaultInjector& injector);

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
  // Records appended, a duplicated one twice (bus.produce.count counts acked
  // produces); the appended side of the bus.queue.depth gauge.
  uint64_t records_produced_ = 0;
  fwobs::Tracer& tracer_;
  fwobs::Profiler& profiler_;
  fwobs::ProfScopeId produce_scope_;
  fwobs::ProfScopeId consume_scope_;
  fwobs::Counter& produce_counter_;
  fwobs::Counter& consume_counter_;
  fwobs::Histogram& produce_latency_;
  fwobs::Histogram& consume_latency_;
  fwobs::Gauge& depth_gauge_;
  fwfault::FaultInjector& injector_;
};

}  // namespace fwbus

#endif  // FIREWORKS_SRC_MSGBUS_BROKER_H_
