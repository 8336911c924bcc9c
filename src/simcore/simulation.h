// Discrete-event simulation kernel.
//
// Simulation owns a virtual clock and a time-ordered event queue. Events at
// equal timestamps execute in schedule (FIFO) order, which makes runs fully
// deterministic. Work is expressed either as plain callbacks (Schedule) or as
// C++20 coroutines (Spawn + co_await Delay/primitives from primitives.h).
//
// Spawned root coroutines are owned by the Simulation: their frames are
// reclaimed as soon as they complete, and any still-suspended roots are
// destroyed in spawn order (recursively, including children they are
// awaiting) when the Simulation is destroyed.
#ifndef FIREWORKS_SRC_SIMCORE_SIMULATION_H_
#define FIREWORKS_SRC_SIMCORE_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/obs/profiler.h"
#include "src/simcore/coro.h"

namespace fwsim {

using fwbase::Duration;
using fwbase::SimTime;

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 42);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }
  fwbase::Rng& rng() { return rng_; }

  // Schedules a plain callback `delay` after the current time (>= 0).
  void Schedule(Duration delay, std::function<void()> fn);
  void ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules a suspended coroutine to be resumed `delay` after now. Used by
  // the synchronisation primitives; resumption always flows through the event
  // queue so primitives never re-enter each other.
  void ScheduleResume(Duration delay, std::coroutine_handle<> h);

  // Starts a root coroutine. The first step runs at the current time (as a
  // queued event, not synchronously). Returns an id usable with IsDone.
  uint64_t Spawn(Co<void> co);
  bool IsDone(uint64_t root_id) const;

  // Runs until the event queue is empty or Stop() is called.
  void Run();
  // Runs events with timestamp <= `t`; afterwards Now() == t (also when the
  // queue drains first) unless Stop() was called. Returns true if events
  // remain.
  bool RunUntil(SimTime t);
  bool RunFor(Duration d) { return RunUntil(Now() + d); }
  // Requests the run loop to return after the current event.
  void Stop() { stop_requested_ = true; }

  // Executes exactly one event (the earliest). Returns false if the queue is
  // empty. Building block for run-until-condition drivers (see run_sync.h).
  bool StepOne();

  uint64_t events_processed() const { return events_processed_; }
  size_t live_roots() const { return roots_.size() - free_roots_.size(); }

  // Attributes event-loop dispatch ("sim.event.dispatch") and coroutine
  // resumption ("sim.coro.resume") cost to `profiler`. Pure observation —
  // the profiler never perturbs event order or the clock — so instrumented
  // and uninstrumented runs are bit-identical (tests/profiler_test.cc).
  // Pass nullptr to detach. A setter, not a constructor argument, because the
  // simulation's owner (a HostEnv or a Cluster) chooses its profiler.
  void set_profiler(fwobs::Profiler* profiler);
  fwobs::Profiler* profiler() const { return profiler_; }

 private:
  // A pending event: a suspended coroutine to resume or, when `h` is null, the
  // slot in `callbacks_` of a plain callback. Trivially copyable, so the queue
  // moves it with plain copies and allocates nothing per event.
  struct Event {
    SimTime when;
    uint64_t seq;
    std::coroutine_handle<> h;
    uint32_t callback;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  // One spawned root: its frame and the id Spawn returned, 0 while free.
  struct RootSlot {
    std::coroutine_handle<> frame;
    uint64_t id = 0;
  };

  // A self-reclaiming driver for one root coroutine (defined in .cc).
  struct Root;
  friend struct Root;

  static bool Earlier(const Event& a, const Event& b);
  void Push(const Event& ev);
  void HeapPush(const Event& ev);
  Event HeapPop();
  Event PopNext();
  bool HasEventAtOrBefore(SimTime t) const;
  void PushCallback(SimTime when, std::function<void()> fn);
  void ReclaimDeadRoots();
  void OnRootDone(uint32_t slot);
  void InstallLogTimeSource();

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t spawned_ = 0;
  uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  // Events due at now_, in seq order: lane_[lane_head_] is the front. Every
  // one has when == now_, because the clock advances only once the lane is
  // empty, and the emptied lane restarts at index 0 (DESIGN §3).
  std::vector<Event> lane_;
  size_t lane_head_ = 0;
  // Every later event: a 4-ary min-heap on (when, seq). Both are bounded by
  // the model: each pending event belongs to one suspended coroutine or one
  // scheduled callback.
  std::vector<Event> heap_;
  // Plain callbacks live here, not in the queue; an event carries its slot.
  // Freed slots are reused, and the vector's destructor releases the
  // captures of callbacks still pending when the Simulation dies.
  std::vector<std::function<void()>> callbacks_;
  std::vector<uint32_t> free_callbacks_;
  // Spawned roots by slot; freed slots are reused. A root id holds its spawn
  // number above kRootSlotBits and its slot below, so ids grow in spawn
  // order and a reused slot never revives an old id.
  static constexpr int kRootSlotBits = 24;
  std::vector<RootSlot> roots_;
  std::vector<uint32_t> free_roots_;
  std::vector<uint32_t> dead_roots_;
  fwbase::Rng rng_;
  fwobs::Profiler* profiler_ = nullptr;
  fwobs::ProfScopeId dispatch_scope_ = 0;
  fwobs::ProfScopeId resume_scope_ = 0;
};

// Awaitable returned by Delay(): suspends the coroutine and resumes it through
// the event queue after `d` of simulated time.
class [[nodiscard]] DelayAwaiter {
 public:
  DelayAwaiter(Simulation& sim, Duration d) : sim_(sim), d_(d) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { sim_.ScheduleResume(d_, h); }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  Duration d_;
};

inline DelayAwaiter Delay(Simulation& sim, Duration d) { return DelayAwaiter(sim, d); }

}  // namespace fwsim

#endif  // FIREWORKS_SRC_SIMCORE_SIMULATION_H_
