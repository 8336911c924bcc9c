// Unit tests for the message bus: topic management, produce/consume ordering,
// and the kafkacat-style "consume last" parameter-passing pattern (§3.6).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/msgbus/broker.h"
#include "tests/test_util.h"

namespace fwbus {
namespace {

using fwbase::StatusCode;
using fwsim::Co;
using fwsim::Simulation;
using fwtest::RunSync;
using namespace fwbase::literals;

class BrokerTest : public fwtest::SimTest {
 protected:
  uint64_t Count(const std::string& counter) const {
    return inst_.obs.metrics().CounterValue(counter);
  }

  fwtest::Instruments inst_{sim_};
  Broker broker_{sim_, inst_.obs, inst_.injector};
  // The registry of a test's second, faulted broker: an Observability has
  // one Broker, whose own count feeds the bus.queue.depth gauge.
  fwobs::Observability twin_obs_{[this] { return sim_.Now(); }};
};

TEST_F(BrokerTest, CreateAndDeleteTopics) {
  EXPECT_TRUE(broker_.CreateTopic("t", 2).ok());
  EXPECT_TRUE(broker_.HasTopic("t"));
  EXPECT_EQ(broker_.PartitionCount("t"), 2);
  EXPECT_EQ(broker_.CreateTopic("t").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(broker_.DeleteTopic("t").ok());
  EXPECT_FALSE(broker_.HasTopic("t"));
  EXPECT_EQ(broker_.DeleteTopic("t").code(), StatusCode::kNotFound);
}

TEST_F(BrokerTest, ProduceAssignsMonotonicOffsets) {
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  auto o0 = RunSync(sim_, broker_.Produce("t", 0, {"k", "v0"}));
  auto o1 = RunSync(sim_, broker_.Produce("t", 0, {"k", "v1"}));
  ASSERT_TRUE(o0.ok());
  ASSERT_TRUE(o1.ok());
  EXPECT_EQ(*o0, 0);
  EXPECT_EQ(*o1, 1);
  EXPECT_EQ(*broker_.EndOffset("t", 0), 2);
}

TEST_F(BrokerTest, ProduceToMissingTopicFails) {
  auto result = RunSync(sim_, broker_.Produce("none", 0, {"k", "v"}));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(BrokerTest, ProduceToBadPartitionFails) {
  ASSERT_TRUE(broker_.CreateTopic("t", 1).ok());
  auto result = RunSync(sim_, broker_.Produce("t", 3, {"k", "v"}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, ConsumeAtReturnsExactRecord) {
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"a", "1"})).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"b", "2"})).ok());
  auto record = RunSync(sim_, broker_.ConsumeAt("t", 0, 1));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->key, "b");
  EXPECT_EQ(record->offset, 1);
}

TEST_F(BrokerTest, ConsumeLastReturnsNewestRecord) {
  ASSERT_TRUE(broker_.CreateTopic("params-fc42").ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("params-fc42", 0, {"", "{\"old\":1}"})).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("params-fc42", 0, {"", "{\"new\":2}"})).ok());
  auto record = RunSync(sim_, broker_.ConsumeLast("params-fc42", 0));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->value, "{\"new\":2}");
}

TEST_F(BrokerTest, ConsumeBlocksUntilProduced) {
  // The paper's protocol produces params *before* resume, but a consumer that
  // races ahead must block, not fail.
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  std::vector<std::string> got;
  sim_.Spawn([](Broker& b, std::vector<std::string>& out) -> Co<void> {
    auto record = co_await b.ConsumeLast("t", 0);
    out.push_back(record->value);
  }(broker_, got));
  sim_.RunFor(10_ms);
  EXPECT_TRUE(got.empty());
  sim_.Spawn([](Broker& b) -> Co<void> {
    auto result = co_await b.Produce("t", 0, {"", "late"});
    FW_CHECK(result.ok());
  }(broker_));
  sim_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "late");
}

TEST_F(BrokerTest, ConsumeAtBlocksForFutureOffset) {
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  std::vector<int64_t> got;
  sim_.Spawn([](Broker& b, std::vector<int64_t>& out) -> Co<void> {
    auto record = co_await b.ConsumeAt("t", 0, 2);
    out.push_back(record->offset);
  }(broker_, got));
  sim_.Spawn([](Broker& b) -> Co<void> {
    for (int i = 0; i < 3; ++i) {
      co_await b.Produce("t", 0, {"", std::to_string(i)});
    }
  }(broker_));
  sim_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 2);
}

TEST_F(BrokerTest, PartitionsAreIndependent) {
  ASSERT_TRUE(broker_.CreateTopic("t", 2).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"", "p0"})).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 1, {"", "p1"})).ok());
  EXPECT_EQ(RunSync(sim_, broker_.ConsumeLast("t", 0))->value, "p0");
  EXPECT_EQ(RunSync(sim_, broker_.ConsumeLast("t", 1))->value, "p1");
  EXPECT_EQ(*broker_.EndOffset("t", 0), 1);
}

TEST_F(BrokerTest, ProduceConsumeAdvanceTime) {
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  const auto t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"", std::string(1000, 'x')})).ok());
  auto after_produce = sim_.Now() - t0;
  EXPECT_GT(after_produce.micros(), 400.0);  // produce cost + transfer.
  ASSERT_TRUE(RunSync(sim_, broker_.ConsumeLast("t", 0)).ok());
  EXPECT_GT((sim_.Now() - t0).micros(), after_produce.micros() + 300.0);
}

TEST_F(BrokerTest, CountersTrack) {
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"", "a"})).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"", "b"})).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.ConsumeLast("t", 0)).ok());
  EXPECT_EQ(broker_.records_produced(), 2u);
  EXPECT_EQ(Count("bus.produce.count"), 2u);
  EXPECT_EQ(Count("bus.consume.count"), 1u);
  EXPECT_EQ(inst_.obs.metrics().GaugeValue("bus.queue.depth"), 1.0);
}

TEST_F(BrokerTest, ManyInstanceTopicsPattern) {
  // One topic per microVM instance, as Fireworks does with fcIDs.
  for (int fc = 0; fc < 20; ++fc) {
    EXPECT_TRUE(broker_.CreateTopic("topic" + std::to_string(fc)).ok());
  }
  for (int fc = 0; fc < 20; ++fc) {
    ASSERT_TRUE(RunSync(sim_, broker_.Produce("topic" + std::to_string(fc), 0, {"", "args" + std::to_string(fc)})).ok());
  }
  for (int fc = 0; fc < 20; ++fc) {
    auto record = RunSync(sim_, broker_.ConsumeLast("topic" + std::to_string(fc), 0));
    EXPECT_EQ(record->value, "args" + std::to_string(fc));
  }
}

// ---------------------------------------------------------------------------
// Fault-twin tests: a broker whose injector has a plan.
// ---------------------------------------------------------------------------

TEST_F(BrokerTest, ConsumeLastWithTimeoutMatchesConsumeLastWhenRecordPresent) {
  // Happy-path twin: with the record already in the log, the bounded consume
  // is indistinguishable from the unbounded one (value and timing).
  ASSERT_TRUE(broker_.CreateTopic("a").ok());
  ASSERT_TRUE(broker_.CreateTopic("b").ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("a", 0, {"", "args"})).ok());
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("b", 0, {"", "args"})).ok());

  auto t0 = sim_.Now();
  auto plain = RunSync(sim_, broker_.ConsumeLast("a", 0));
  const auto plain_elapsed = sim_.Now() - t0;
  t0 = sim_.Now();
  auto bounded = RunSync(sim_, broker_.ConsumeLastWithTimeout("b", 0, 500_ms));
  const auto bounded_elapsed = sim_.Now() - t0;

  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(plain->value, bounded->value);
  EXPECT_EQ(plain_elapsed.nanos(), bounded_elapsed.nanos());
}

TEST_F(BrokerTest, DropFaultAcksButRecordNeverLands) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kBrokerDropMessage, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, 9);
  Broker broker(sim_, twin_obs_, injector);

  ASSERT_TRUE(broker.CreateTopic("t").ok());
  // The producer is lied to (acks=1 semantics): it receives an offset...
  auto offset = RunSync(sim_, broker.Produce("t", 0, {"", "lost"}));
  ASSERT_TRUE(offset.ok());
  // ...but the record never lands; a bounded consumer times out instead of
  // hanging forever.
  const auto t0 = sim_.Now();
  auto consumed = RunSync(sim_, broker.ConsumeLastWithTimeout("t", 0, 50_ms));
  EXPECT_EQ(consumed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE((sim_.Now() - t0).nanos(), (50_ms).nanos());

  // Budget spent: the retry lands and is consumable.
  ASSERT_TRUE(RunSync(sim_, broker.Produce("t", 0, {"", "retry"})).ok());
  auto record = RunSync(sim_, broker.ConsumeLastWithTimeout("t", 0, 50_ms));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->value, "retry");
}

TEST_F(BrokerTest, DuplicateFaultAppendsRecordTwice) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kBrokerDuplicateMessage, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, 9);
  Broker broker(sim_, twin_obs_, injector);

  ASSERT_TRUE(broker.CreateTopic("t").ok());
  ASSERT_TRUE(RunSync(sim_, broker.Produce("t", 0, {"", "dup"})).ok());
  auto first = RunSync(sim_, broker.ConsumeAt("t", 0, 0));
  auto second = RunSync(sim_, broker.ConsumeAt("t", 0, 1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->value, "dup");
  EXPECT_EQ(second->value, "dup");
  // Two records landed for one acked produce.
  EXPECT_EQ(broker.records_produced(), 2u);
  EXPECT_EQ(twin_obs_.metrics().CounterValue("bus.produce.count"), 1u);
}

TEST_F(BrokerTest, DelayFaultAddsDeterministicLatency) {
  ASSERT_TRUE(broker_.CreateTopic("t").ok());
  const auto base_t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, broker_.Produce("t", 0, {"", "fast"})).ok());
  const auto base_elapsed = sim_.Now() - base_t0;

  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kBrokerDelayMessage, 1.0);
  fwfault::FaultInjector injector(sim_, plan, 9);
  Broker slow(sim_, twin_obs_, injector);
  ASSERT_TRUE(slow.CreateTopic("t").ok());
  ASSERT_TRUE(RunSync(sim_, slow.Produce("t", 0, {"", "first"})).ok());
  const auto slow_t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, slow.Produce("t", 0, {"", "slow"})).ok());
  const auto slow_elapsed = sim_.Now() - slow_t0;
  EXPECT_GT(slow_elapsed.nanos(), base_elapsed.nanos());
  // The delayed record still lands, in order.
  auto first = RunSync(sim_, slow.ConsumeAt("t", 0, 0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->value, "first");
  auto record = RunSync(sim_, slow.ConsumeLast("t", 0));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->value, "slow");
}

}  // namespace
}  // namespace fwbus
