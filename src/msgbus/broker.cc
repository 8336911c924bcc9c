#include "src/msgbus/broker.h"

#include <utility>

#include "src/base/check.h"
#include "src/fault/fault.h"

namespace fwbus {

namespace {
// Poll interval while ConsumeLastWithTimeout waits on an empty partition, and
// the mean of the extra exponential latency a delay fault adds in Produce.
constexpr Duration kConsumePollInterval = Duration::Millis(1);
constexpr Duration kDelayFaultMean = Duration::Millis(5);
constexpr Duration kProduceCost = Duration::Micros(400);  // Append + ack (acks=1).
constexpr Duration kFetchCost = Duration::Micros(300);    // Fetch request round trip.
constexpr double kBandwidthBytesPerSec = 200.0e6;

}  // namespace

Broker::Broker(fwsim::Simulation& sim, fwobs::Observability& obs,
               fwfault::FaultInjector& injector)
    : sim_(sim),
      tracer_(obs.tracer()),
      profiler_(obs.profiler()),
      produce_scope_(profiler_.RegisterScope("bus.produce.commit")),
      consume_scope_(profiler_.RegisterScope("bus.consume.fetch")),
      produce_counter_(obs.metrics().GetCounter("bus.produce.count")),
      consume_counter_(obs.metrics().GetCounter("bus.consume.count")),
      produce_latency_(obs.metrics().GetHistogram("bus.produce.micros")),
      consume_latency_(obs.metrics().GetHistogram("bus.consume.micros")),
      depth_gauge_(obs.metrics().GetGauge("bus.queue.depth")),
      injector_(injector) {}

void Broker::RecordConsume(fwbase::SimTime t0) {
  FW_PROFILE_SCOPE_ID(&profiler_, consume_scope_);
  consume_counter_.Increment();
  consume_latency_.Observe(static_cast<uint64_t>((sim_.Now() - t0).micros()));
  depth_gauge_.Set(static_cast<double>(records_produced_) -
                   static_cast<double>(consume_counter_.value()));
}

Status Broker::CreateTopic(const std::string& topic, int partitions) {
  FW_CHECK(partitions > 0);
  if (topics_.count(topic) != 0) {
    return Status::AlreadyExists("topic " + topic + " exists");
  }
  Topic t;
  for (int i = 0; i < partitions; ++i) {
    t.partitions.push_back(std::make_unique<Partition>(sim_));
  }
  topics_.emplace(topic, std::move(t));
  return Status::Ok();
}

Status Broker::DeleteTopic(const std::string& topic) {
  if (topics_.erase(topic) == 0) {
    return Status::NotFound("no topic " + topic);
  }
  return Status::Ok();
}

bool Broker::HasTopic(const std::string& topic) const { return topics_.count(topic) != 0; }

int Broker::PartitionCount(const std::string& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? 0 : static_cast<int>(it->second.partitions.size());
}

Result<Broker::Partition*> Broker::FindPartition(const std::string& topic, int partition) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status::NotFound("no topic " + topic);
  }
  if (partition < 0 || partition >= static_cast<int>(it->second.partitions.size())) {
    return Status::InvalidArgument("no partition " + std::to_string(partition) + " in " + topic);
  }
  return it->second.partitions[partition].get();
}

fwsim::Co<Result<int64_t>> Broker::Produce(const std::string& topic, int partition,
                                           Record record) {
  auto part = FindPartition(topic, partition);
  if (!part.ok()) {
    co_return part.status();
  }
  const fwbase::SimTime t0 = sim_.Now();
  fwobs::ScopedSpan span(&tracer_, "bus.produce", "msgbus");
  span.SetAttribute("topic", topic);
  span.SetAttribute("bytes", record.SizeBytes());
  co_await fwsim::Delay(
      sim_, kProduceCost + fwbase::TransferTime(record.SizeBytes(), kBandwidthBytesPerSec));
  if (injector_.Trip(fwfault::FaultKind::kBrokerDelayMessage)) {
    co_await fwsim::Delay(
        sim_, injector_.SampleDelay(fwfault::FaultKind::kBrokerDelayMessage, kDelayFaultMean));
  }
  // No co_await below: the commit (append + metrics + wakeup) is synchronous
  // bookkeeping, which is exactly what the profiler scope attributes.
  FW_PROFILE_SCOPE_ID(&profiler_, produce_scope_);
  Partition& p = **part;
  record.offset = static_cast<int64_t>(p.log.size());
  const int64_t offset = record.offset;
  if (injector_.Trip(fwfault::FaultKind::kBrokerDropMessage)) {
    // acks=1 lie: the producer sees success but the record never lands and
    // waiters are never woken. Consumers must bound their waits.
    co_return offset;
  }
  const bool duplicate = injector_.Trip(fwfault::FaultKind::kBrokerDuplicateMessage);
  p.log.push_back(std::move(record));
  ++records_produced_;
  if (duplicate) {
    Record copy = p.log.back();
    copy.offset = static_cast<int64_t>(p.log.size());
    p.log.push_back(std::move(copy));
    ++records_produced_;
  }
  produce_counter_.Increment();
  produce_latency_.Observe(static_cast<uint64_t>((sim_.Now() - t0).micros()));
  depth_gauge_.Set(static_cast<double>(records_produced_) -
                   static_cast<double>(consume_counter_.value()));
  p.appended.Trigger();
  co_return offset;
}

fwsim::Co<Result<Record>> Broker::ConsumeAt(const std::string& topic, int partition,
                                            int64_t offset) {
  FW_CHECK(offset >= 0);
  auto part = FindPartition(topic, partition);
  if (!part.ok()) {
    co_return part.status();
  }
  const fwbase::SimTime t0 = sim_.Now();
  fwobs::ScopedSpan span(&tracer_, "bus.consume", "msgbus");
  span.SetAttribute("topic", topic);
  Partition& p = **part;
  while (static_cast<int64_t>(p.log.size()) <= offset) {
    co_await p.appended.Wait();
  }
  // Copy before suspending: the log vector may grow (and reallocate) while the
  // fetch delay elapses.
  Record record = p.log[static_cast<size_t>(offset)];
  co_await fwsim::Delay(
      sim_, kFetchCost + fwbase::TransferTime(record.SizeBytes(), kBandwidthBytesPerSec));
  RecordConsume(t0);
  co_return record;
}

fwsim::Co<Result<Record>> Broker::ConsumeLast(const std::string& topic, int partition) {
  auto part = FindPartition(topic, partition);
  if (!part.ok()) {
    co_return part.status();
  }
  const fwbase::SimTime t0 = sim_.Now();
  fwobs::ScopedSpan span(&tracer_, "bus.consume", "msgbus");
  span.SetAttribute("topic", topic);
  Partition& p = **part;
  while (p.log.empty()) {
    co_await p.appended.Wait();
  }
  // Copy before suspending (see ConsumeAt).
  Record record = p.log.back();
  co_await fwsim::Delay(
      sim_, kFetchCost + fwbase::TransferTime(record.SizeBytes(), kBandwidthBytesPerSec));
  RecordConsume(t0);
  co_return record;
}

fwsim::Co<Result<Record>> Broker::ConsumeLastWithTimeout(const std::string& topic,
                                                         int partition, Duration timeout) {
  auto part = FindPartition(topic, partition);
  if (!part.ok()) {
    co_return part.status();
  }
  const fwbase::SimTime t0 = sim_.Now();
  const fwbase::SimTime deadline = t0 + timeout;
  fwobs::ScopedSpan span(&tracer_, "bus.consume", "msgbus");
  span.SetAttribute("topic", topic);
  Partition& p = **part;
  // Poll instead of waiting on `appended`: a record dropped in flight never
  // triggers the event, and a consumer stranded on it would hang the run.
  while (p.log.empty()) {
    if (sim_.Now() >= deadline) {
      co_return Status::DeadlineExceeded("no record in " + topic + " within " +
                                         std::to_string(timeout.millis()) + " ms");
    }
    co_await fwsim::Delay(sim_, kConsumePollInterval);
  }
  // Copy before suspending (see ConsumeAt).
  Record record = p.log.back();
  co_await fwsim::Delay(
      sim_, kFetchCost + fwbase::TransferTime(record.SizeBytes(), kBandwidthBytesPerSec));
  RecordConsume(t0);
  co_return record;
}

Result<int64_t> Broker::EndOffset(const std::string& topic, int partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status::NotFound("no topic " + topic);
  }
  if (partition < 0 || partition >= static_cast<int>(it->second.partitions.size())) {
    return Status::InvalidArgument("bad partition");
  }
  return static_cast<int64_t>(it->second.partitions[partition]->log.size());
}

}  // namespace fwbus
