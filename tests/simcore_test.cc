// Unit tests for the discrete-event kernel: event ordering, coroutine tasks
// and their root table, and synchronisation primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwsim {
namespace {

using fwbase::Duration;
using fwbase::SimTime;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// Plain callback scheduling.
// ---------------------------------------------------------------------------

TEST(SimulationTest, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30_ms, [&] { order.push_back(3); });
  sim.Schedule(10_ms, [&] { order.push_back(1); });
  sim.Schedule(20_ms, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 30_ms);
}

TEST(SimulationTest, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulationTest, NestedSchedulingAdvancesClock) {
  Simulation sim;
  SimTime inner_time;
  sim.Schedule(1_ms, [&] {
    sim.Schedule(2_ms, [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, SimTime::Zero() + 3_ms);
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10_ms, [&] { ++fired; });
  sim.Schedule(20_ms, [&] { ++fired; });
  const bool remaining = sim.RunUntil(SimTime::Zero() + 15_ms);
  EXPECT_TRUE(remaining);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 15_ms);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilAdvancesClockWithEmptyQueue) {
  Simulation sim;
  EXPECT_FALSE(sim.RunUntil(SimTime::Zero() + 1_s));
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 1_s);
}

TEST(SimulationTest, StopInterruptsRun) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1_ms, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2_ms, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventCountTracked) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Duration::Millis(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulationDeathTest, SchedulingInPastAborts) {
  Simulation sim;
  EXPECT_DEATH(sim.ScheduleAt(SimTime::Zero() - 1_ms, [] {}), "past");
}

// ---------------------------------------------------------------------------
// Coroutine tasks.
// ---------------------------------------------------------------------------

Co<void> SleepAndMark(Simulation& sim, Duration d, std::vector<double>& marks) {
  co_await Delay(sim, d);
  marks.push_back(sim.Now().seconds());
}

TEST(CoroTest, DelayAdvancesVirtualTime) {
  Simulation sim;
  std::vector<double> marks;
  sim.Spawn(SleepAndMark(sim, 2_s, marks));
  sim.Run();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_DOUBLE_EQ(marks[0], 2.0);
}

TEST(CoroTest, RootCompletionTracked) {
  Simulation sim;
  std::vector<double> marks;
  const uint64_t id = sim.Spawn(SleepAndMark(sim, 1_s, marks));
  EXPECT_FALSE(sim.IsDone(id));
  sim.Run();
  EXPECT_TRUE(sim.IsDone(id));
  EXPECT_EQ(sim.live_roots(), 0u);
}

Co<int> AddAfter(Simulation& sim, Duration d, int a, int b) {
  co_await Delay(sim, d);
  co_return a + b;
}

Co<void> CallNested(Simulation& sim, int& out) {
  const int x = co_await AddAfter(sim, 5_ms, 2, 3);
  const int y = co_await AddAfter(sim, 5_ms, x, 10);
  out = y;
}

TEST(CoroTest, NestedCoReturnsValues) {
  Simulation sim;
  int out = 0;
  sim.Spawn(CallNested(sim, out));
  sim.Run();
  EXPECT_EQ(out, 15);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 10_ms);
}

Co<int> DeepChain(Simulation& sim, int depth) {
  if (depth == 0) {
    co_await Delay(sim, 1_us);
    co_return 0;
  }
  const int below = co_await DeepChain(sim, depth - 1);
  co_return below + 1;
}

TEST(CoroTest, DeepRecursiveChain) {
  Simulation sim;
  int result = -1;
  sim.Spawn([](Simulation& s, int& r) -> Co<void> {
    r = co_await DeepChain(s, 200);
  }(sim, result));
  sim.Run();
  EXPECT_EQ(result, 200);
}

TEST(CoroTest, ManyConcurrentRootsInterleave) {
  Simulation sim;
  std::vector<double> marks;
  for (int i = 1; i <= 50; ++i) {
    sim.Spawn(SleepAndMark(sim, Duration::Millis(i), marks));
  }
  sim.Run();
  ASSERT_EQ(marks.size(), 50u);
  for (int i = 1; i < 50; ++i) {
    EXPECT_LT(marks[i - 1], marks[i]);
  }
}

TEST(CoroTest, SuspendedRootsDestroyedWithSimulation) {
  // A coroutine suspended forever must be reclaimed when the Simulation dies
  // (ASAN would flag the frame leak otherwise).
  std::vector<double> marks;
  auto sim = std::make_unique<Simulation>();
  sim->Spawn(SleepAndMark(*sim, Duration::Seconds(1000), marks));
  sim->RunFor(1_s);
  EXPECT_EQ(sim->live_roots(), 1u);
  sim.reset();  // Must not leak or crash.
  EXPECT_TRUE(marks.empty());
}

// Appends its name to a log when destroyed: a coroutine frame holding one
// records when it is torn down.
class Marker {
 public:
  Marker(std::vector<std::string>& log, std::string name) : log_(log), name_(std::move(name)) {}
  ~Marker() { log_.push_back(name_); }

 private:
  std::vector<std::string>& log_;
  std::string name_;
};

Co<void> HoldMarker(Simulation& sim, Duration life, std::vector<std::string>& log,
                    std::string name) {
  Marker marker(log, std::move(name));
  co_await Delay(sim, life);
}

TEST(RootTableTest, SuspendedRootsDieInSpawnOrderAfterSlotReuse) {
  std::vector<std::string> log;
  auto sim = std::make_unique<Simulation>();
  const Duration forever = Duration::Seconds(1000);
  sim->Spawn(HoldMarker(*sim, 1_ms, log, "a"));
  sim->Spawn(HoldMarker(*sim, forever, log, "b"));
  sim->Spawn(HoldMarker(*sim, 2_ms, log, "c"));
  EXPECT_EQ(sim->live_roots(), 3u);
  sim->RunFor(5_ms);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(sim->live_roots(), 1u);
  // d and e take the slots a and c freed, in whichever order the free list
  // gives them out; neither matches spawn order for both.
  sim->Spawn(HoldMarker(*sim, forever, log, "d"));
  sim->Spawn(HoldMarker(*sim, forever, log, "e"));
  sim->RunFor(1_ms);
  EXPECT_EQ(sim->live_roots(), 3u);
  log.clear();
  sim.reset();
  EXPECT_EQ(log, (std::vector<std::string>{"b", "d", "e"}));
}

TEST(RootTableTest, FinishedRootStaysDoneAfterItsSlotIsReused) {
  Simulation sim;
  std::vector<double> marks;
  const uint64_t first = sim.Spawn(SleepAndMark(sim, 1_ms, marks));
  EXPECT_FALSE(sim.IsDone(first));
  sim.Run();
  EXPECT_TRUE(sim.IsDone(first));
  EXPECT_EQ(sim.live_roots(), 0u);
  const uint64_t second = sim.Spawn(SleepAndMark(sim, 1_ms, marks));  // Reuses the slot.
  EXPECT_NE(second, first);
  EXPECT_TRUE(sim.IsDone(first));
  EXPECT_FALSE(sim.IsDone(second));
  EXPECT_EQ(sim.live_roots(), 1u);
  sim.Run();
  EXPECT_TRUE(sim.IsDone(first));
  EXPECT_TRUE(sim.IsDone(second));
  EXPECT_EQ(sim.live_roots(), 0u);
  EXPECT_TRUE(sim.IsDone(0));  // Spawn never returns 0.
}

TEST(RootTableTest, LiveRootsCountsEverySpawnUntilItsReclaim) {
  Simulation sim;
  std::vector<double> marks;
  for (int i = 1; i <= 10; ++i) {
    sim.Spawn(SleepAndMark(sim, Duration::Millis(i), marks));
  }
  EXPECT_EQ(sim.live_roots(), 10u);
  size_t refills = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.RunUntil(SimTime::Zero() + Duration::Millis(i));
    EXPECT_EQ(sim.live_roots(), 10 - i + refills) << i;
    if (i % 2 == 0) {
      // Takes a freed slot and outlives the loop.
      sim.Spawn(SleepAndMark(sim, 1_s, marks));
      ++refills;
      EXPECT_EQ(sim.live_roots(), 10 - i + refills) << i;
    }
  }
  sim.Run();
  EXPECT_EQ(marks.size(), 15u);
  EXPECT_EQ(sim.live_roots(), 0u);
}

// ---------------------------------------------------------------------------
// SimEvent.
// ---------------------------------------------------------------------------

Co<void> WaitEvent(Simulation& sim, SimEvent& ev, int& wakes) {
  co_await ev.Wait();
  ++wakes;
}

TEST(SimEventTest, TriggerWakesAllWaiters) {
  Simulation sim;
  SimEvent ev(sim);
  int wakes = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(WaitEvent(sim, ev, wakes));
  }
  sim.RunFor(1_ms);
  EXPECT_EQ(wakes, 0);
  EXPECT_EQ(ev.waiter_count(), 3u);
  ev.Trigger();
  sim.Run();
  EXPECT_EQ(wakes, 3);
}

TEST(SimEventTest, TriggerOnlyWakesCurrentWaiters) {
  Simulation sim;
  SimEvent ev(sim);
  int wakes = 0;
  sim.Spawn(WaitEvent(sim, ev, wakes));
  sim.RunFor(1_ms);
  ev.Trigger();
  sim.Run();
  EXPECT_EQ(wakes, 1);
  // A waiter arriving after the trigger stays suspended.
  sim.Spawn(WaitEvent(sim, ev, wakes));
  sim.Run();
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(ev.waiter_count(), 1u);
  ev.Trigger();
  sim.Run();
  EXPECT_EQ(wakes, 2);
}

// ---------------------------------------------------------------------------
// The event queue: resume events (a coroutine handle) beside callbacks (a
// slot in the Simulation's callback vector).
// ---------------------------------------------------------------------------

Co<void> WaitThenMark(SimEvent& ev, std::vector<int>& order, int mark) {
  co_await ev.Wait();
  order.push_back(mark);
}

TEST(EventQueueTest, ResumesAndCallbacksAtOneInstantRunInScheduleOrder) {
  Simulation sim;
  constexpr int kEvents = 40;
  std::vector<int> order;
  std::vector<std::unique_ptr<SimEvent>> wakers;
  for (int i = 1; i < kEvents; i += 2) {
    wakers.push_back(std::make_unique<SimEvent>(sim));
    sim.Spawn(WaitThenMark(*wakers.back(), order, i));
  }
  sim.RunFor(1_ms);
  // At 5 ms one callback schedules, in turn, a callback for each even mark
  // and the resume of the coroutine holding each odd mark, all at 5 ms.
  sim.Schedule(4_ms, [&] {
    for (int i = 0; i < kEvents; ++i) {
      if (i % 2 == 0) {
        sim.Schedule(Duration::Zero(), [&order, i] { order.push_back(i); });
      } else {
        wakers[i / 2]->Trigger();
      }
    }
  });
  sim.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 5_ms);
}

TEST(EventQueueTest, CallbackThatSchedulesCallbacksKeepsItsCaptures) {
  Simulation sim;
  int fired = 0;
  // Two references: small enough that std::function keeps the closure in the
  // slot itself. Run in place, the callback would read its captures from the
  // slot vector's freed storage once the 100 schedules below have grown it
  // (caught under ASan).
  sim.Schedule(1_ms, [&sim, &fired] {
    for (int i = 0; i < 100; ++i) {
      sim.Schedule(Duration::Micros(i), [&fired] { ++fired; });
    }
    fired += 1000;
  });
  sim.Run();
  EXPECT_EQ(fired, 1100);
}

TEST(EventQueueTest, DestroyingTheSimulationReleasesPendingCallbacks) {
  auto token = std::make_shared<int>(7);
  {
    Simulation sim;
    for (int i = 1; i <= 3; ++i) {
      sim.Schedule(Duration::Seconds(i), [token] {});
    }
    EXPECT_EQ(token.use_count(), 4);
    sim.RunUntil(SimTime::Zero() + 1_s);
    EXPECT_EQ(token.use_count(), 3);  // The fired callback let go of its copy.
    sim.Schedule(5_s, [token] {});   // Reuses the freed slot.
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, RunUntilRunsAResumeEventExactlyAtTheBoundary) {
  Simulation sim;
  std::vector<double> marks;
  sim.Spawn(SleepAndMark(sim, 10_ms, marks));
  EXPECT_FALSE(sim.RunUntil(SimTime::Zero() + 10_ms));
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_DOUBLE_EQ(marks[0], 0.010);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 10_ms);
}

TEST(EventQueueTest, EventScheduledEarlierForAnInstantRunsBeforeItsZeroDelayEvents) {
  // b is scheduled at t = 0 for 5 ms, before anything that a runs at 5 ms
  // schedules there: it must run right after a, ahead of a's zero-delay
  // callbacks and the resume a's trigger schedules, which follow in schedule
  // order.
  Simulation sim;
  SimEvent ev(sim);
  std::vector<int> order;
  sim.Spawn(WaitThenMark(ev, order, 3));
  sim.Schedule(5_ms, [&] {
    order.push_back(1);
    sim.Schedule(Duration::Zero(), [&order] { order.push_back(2); });
    ev.Trigger();
    sim.ScheduleAt(sim.Now(), [&order] { order.push_back(4); });
  });
  sim.Schedule(5_ms, [&order] { order.push_back(0); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 5_ms);
}

// Drives a random mix of callbacks and coroutine wake-ups and records, for
// every event it schedules, its due time and its schedule index. The
// Simulation must run them in (due time, schedule index) order.
class QueueDifferential {
 public:
  QueueDifferential(Simulation& sim, uint64_t seed) : sim_(sim), rng_(seed) {}

  void Start() {
    for (int i = 0; i < 8; ++i) {
      ScheduleCallback();
      SpawnSleeper();
    }
  }

  // Indices of the events in the order they ran.
  const std::vector<uint64_t>& ran() const { return ran_; }
  // The same indices sorted by (due time, schedule index).
  std::vector<uint64_t> Reference() const {
    std::vector<uint64_t> order(due_.size());
    for (uint64_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](uint64_t a, uint64_t b) { return due_[a] < due_[b]; });
    return order;
  }
  size_t scheduled() const { return due_.size(); }

 private:
  static constexpr uint64_t kEvents = 2000;

  Duration NextDelay() {
    static const Duration kDelays[] = {Duration::Zero(), Duration::Zero(), 1_ns, 7_us, 1_ms};
    return kDelays[rng_.UniformU64(5)];
  }
  // Records one event about to be scheduled, due `delay` from now.
  uint64_t Track(Duration delay) {
    due_.push_back(sim_.Now() + delay);
    return due_.size() - 1;
  }
  void Ran(uint64_t index) {
    EXPECT_EQ(sim_.Now(), due_[index]) << index;
    ran_.push_back(index);
  }
  bool Budget() const { return due_.size() < kEvents; }

  void ScheduleCallback() {
    const Duration delay = NextDelay();
    const uint64_t index = Track(delay);
    sim_.Schedule(delay, [this, index] {
      Ran(index);
      // A callback schedules callbacks and spawns sleepers.
      const uint64_t fanout = rng_.UniformU64(3);
      for (uint64_t k = 0; k < fanout && Budget(); ++k) {
        if (rng_.Chance(0.7)) {
          ScheduleCallback();
        } else {
          SpawnSleeper();
        }
      }
    });
  }
  void SpawnSleeper() {
    const uint64_t first = Track(Duration::Zero());  // Spawn's first step is an event now.
    sim_.Spawn(Sleeper(first));
  }
  Co<void> Sleeper(uint64_t index) {
    for (;;) {
      Ran(index);
      if (!Budget()) {
        co_return;
      }
      if (rng_.Chance(0.3)) {
        ScheduleCallback();  // A coroutine schedules callbacks too.
      }
      if (!Budget()) {
        co_return;
      }
      const Duration delay = NextDelay();
      index = Track(delay);
      co_await Delay(sim_, delay);
    }
  }

  Simulation& sim_;
  fwbase::Rng rng_;
  std::vector<SimTime> due_;
  std::vector<uint64_t> ran_;
};

TEST(EventQueueTest, RandomScheduleRunsInDueTimeThenScheduleOrder) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Simulation sim;
    QueueDifferential driver(sim, seed);
    driver.Start();
    sim.Run();
    EXPECT_GE(driver.scheduled(), 2000u) << "seed " << seed;
    ASSERT_EQ(driver.ran(), driver.Reference()) << "seed " << seed;
    EXPECT_EQ(sim.live_roots(), 0u);
  }
}

TEST(EventQueueTest, RunUntilRunsZeroDelayEventsPendingAtTheCurrentInstant) {
  Simulation sim;
  sim.RunFor(2_ms);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(Duration::Zero(), [&order, i] { order.push_back(i); });
  }
  // Only same-instant events are pending: a boundary at the current instant
  // runs them, and the clock stays put.
  EXPECT_FALSE(sim.RunUntil(sim.Now()));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 2_ms);
  sim.Schedule(Duration::Zero(), [&order] { order.push_back(3); });
  EXPECT_FALSE(sim.RunUntil(SimTime::Zero() + 3_ms));
  EXPECT_EQ(order.back(), 3);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 3_ms);
}

TEST(EventQueueTest, StopLeavesTheRestOfTheInstantPending) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Duration::Zero(), [&] {
    order.push_back(0);
    sim.Stop();
  });
  sim.Schedule(Duration::Zero(), [&order] { order.push_back(1); });
  sim.Schedule(Duration::Zero(), [&order] { order.push_back(2); });
  // Stopped after the first event: the others stay queued and the clock does
  // not move to the boundary.
  EXPECT_TRUE(sim.RunUntil(SimTime::Zero() + 1_ms));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sim.Now(), SimTime::Zero());
  sim.Schedule(Duration::Zero(), [&] {
    order.push_back(3);
    sim.Stop();
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  sim.Run();  // Nothing left.
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

// ---------------------------------------------------------------------------
// Channel.
// ---------------------------------------------------------------------------

Co<void> RecvInto(Simulation& sim, Channel<int>& ch, std::vector<int>& out) {
  const int v = co_await ch.Recv();
  out.push_back(v);
}

TEST(ChannelTest, RecvBeforeSendSuspends) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  sim.Spawn(RecvInto(sim, ch, out));
  sim.RunFor(1_ms);
  EXPECT_TRUE(out.empty());
  ch.Send(42);
  sim.Run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(ChannelTest, SendBeforeRecvDeliversImmediately) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  ch.Send(7);
  sim.Spawn(RecvInto(sim, ch, out));
  sim.Run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(ChannelTest, FifoAcrossManyMessages) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  for (int i = 0; i < 10; ++i) {
    sim.Spawn(RecvInto(sim, ch, out));
  }
  for (int i = 0; i < 10; ++i) {
    ch.Send(i);
  }
  sim.Run();
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], i);
  }
}

TEST(ChannelTest, TryRecvRespectsClaims) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  sim.Spawn(RecvInto(sim, ch, out));
  sim.RunFor(1_ms);       // The receiver is now suspended.
  ch.Send(1);             // Claimed for the suspended receiver.
  EXPECT_FALSE(ch.TryRecv().has_value());  // Cannot steal the claimed item.
  sim.Run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
}

TEST(ChannelTest, TryRecvTakesUnclaimedItem) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.Send(5);
  auto v = ch.TryRecv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
  EXPECT_FALSE(ch.TryRecv().has_value());
}

TEST(ChannelTest, InterleavedSendRecvNoLoss) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  sim.Spawn([](Simulation& s, Channel<int>& c, std::vector<int>& o) -> Co<void> {
    for (int i = 0; i < 100; ++i) {
      o.push_back(co_await c.Recv());
    }
  }(sim, ch, out));
  sim.Spawn([](Simulation& s, Channel<int>& c) -> Co<void> {
    for (int i = 0; i < 100; ++i) {
      co_await Delay(s, 1_us);
      c.Send(i);
    }
  }(sim, ch));
  sim.Run();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], i);
  }
}

// ---------------------------------------------------------------------------
// Resource.
// ---------------------------------------------------------------------------

Co<void> UseResource(Simulation& sim, Resource& res, Duration hold, std::vector<double>& done) {
  co_await res.Acquire();
  co_await Delay(sim, hold);
  res.Release();
  done.push_back(sim.Now().seconds());
}

TEST(ResourceTest, CapacityLimitsConcurrency) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(UseResource(sim, res, 10_ms, done));
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  // Two run [0,10ms), the next two [10,20ms).
  EXPECT_DOUBLE_EQ(done[0], 0.010);
  EXPECT_DOUBLE_EQ(done[1], 0.010);
  EXPECT_DOUBLE_EQ(done[2], 0.020);
  EXPECT_DOUBLE_EQ(done[3], 0.020);
}

TEST(ResourceTest, ImmediateAcquireWhenAvailable) {
  Simulation sim;
  Resource res(sim, 3);
  std::vector<double> done;
  sim.Spawn(UseResource(sim, res, 1_ms, done));
  sim.Run();
  EXPECT_EQ(res.available(), 3);
  EXPECT_EQ(done.size(), 1u);
}

TEST(ResourceTest, LargeRequestNotStarved) {
  Simulation sim;
  Resource res(sim, 4);
  std::vector<std::string> order;
  auto holder = [](Simulation& s, Resource& r, int64_t n, Duration hold, std::string name,
                   std::vector<std::string>& o) -> Co<void> {
    co_await r.Acquire(n);
    o.push_back(name + ":start");
    co_await Delay(s, hold);
    r.Release(n);
    o.push_back(name + ":end");
  };
  sim.Spawn(holder(sim, res, 3, 10_ms, "a", order));
  sim.Spawn(holder(sim, res, 4, 10_ms, "big", order));   // Must wait for 'a'.
  sim.Spawn(holder(sim, res, 1, 10_ms, "c", order));     // Queued behind 'big'.
  sim.Run();
  // FIFO granting: big runs before c even though c would fit alongside a.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "a:start");
  EXPECT_EQ(order[1], "a:end");
  EXPECT_EQ(order[2], "big:start");
  EXPECT_EQ(order[3], "big:end");
  EXPECT_EQ(order[4], "c:start");
}

// ---------------------------------------------------------------------------
// SharedPromise / Future.
// ---------------------------------------------------------------------------

TEST(FutureTest, AwaitAfterSetIsImmediate) {
  Simulation sim;
  SharedPromise<int> p(sim);
  p.Set(9);
  int got = 0;
  sim.Spawn([](Future<int> f, int& g) -> Co<void> { g = co_await f; }(p.GetFuture(), got));
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(FutureTest, MultipleAwaitersAllWoken) {
  Simulation sim;
  SharedPromise<std::string> p(sim);
  std::vector<std::string> got;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](Future<std::string> f, std::vector<std::string>& g) -> Co<void> {
      g.push_back(co_await f);
    }(p.GetFuture(), got));
  }
  sim.RunFor(1_ms);
  EXPECT_TRUE(got.empty());
  p.Set("done");
  sim.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "done");
}

TEST(FutureTest, ReadyFlagAndGet) {
  Simulation sim;
  SharedPromise<int> p(sim);
  Future<int> f = p.GetFuture();
  EXPECT_FALSE(f.ready());
  p.Set(3);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.Get(), 3);
}

}  // namespace
}  // namespace fwsim
