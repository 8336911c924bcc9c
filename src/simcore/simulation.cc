#include "src/simcore/simulation.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/obs/clock.h"

namespace fwsim {

// Root is an eager-started, self-registering driver coroutine: it awaits the
// user's Co<void> and notifies the Simulation when the whole chain completes
// so the frame can be reclaimed from inside the run loop (never from inside
// the coroutine itself, where destroy() would free a live frame).
struct Simulation::Root {
  struct promise_type {
    Simulation* sim = nullptr;
    uint32_t slot = 0;

    Root get_return_object() {
      return Root{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        h.promise().sim->OnRootDone(h.promise().slot);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() const noexcept { std::terminate(); }
  };

  std::coroutine_handle<promise_type> handle;

  static Root Drive(Co<void> co) { co_await std::move(co); }
};

Simulation::Simulation(uint64_t seed) : rng_(seed) { InstallLogTimeSource(); }

Simulation::~Simulation() {
  fwbase::SetLogTimeSource(nullptr);
  ReclaimDeadRoots();
  // Destroy still-suspended roots in spawn order (ids grow with it; slots are
  // reused, so slot order is not spawn order). Each recursively destroys the
  // children it awaits.
  std::vector<RootSlot> suspended;
  for (const RootSlot& root : roots_) {
    if (root.id != 0) {
      suspended.push_back(root);
    }
  }
  std::sort(suspended.begin(), suspended.end(),
            [](const RootSlot& a, const RootSlot& b) { return a.id < b.id; });
  for (const RootSlot& root : suspended) {
    root.frame.destroy();
  }
}

void Simulation::InstallLogTimeSource() {
  // Route through the observability clock helper: FW_LOG prefixes and span
  // timestamps share one formatting path and can never disagree.
  fwbase::SetLogTimeSource([this] { return fwobs::FormatSimTime(now_); });
}

bool Simulation::Earlier(const Event& a, const Event& b) {
  // One 128-bit key, `when` (never negative) above `seq`: one compare and no
  // branch, where comparing the pair takes two.
  const auto key = [](const Event& e) {
    return (static_cast<unsigned __int128>(static_cast<uint64_t>(e.when.nanos())) << 64) | e.seq;
  };
  return key(a) < key(b);
}

void Simulation::Push(const Event& ev) {
  if (ev.when == now_) {
    lane_.push_back(ev);
  } else {
    HeapPush(ev);
  }
}

void Simulation::HeapPush(const Event& ev) {
  // Sift a hole up from the new leaf; the event is written once, at the end.
  size_t hole = heap_.size();
  heap_.push_back(ev);
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!Earlier(ev, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ev;
}

Simulation::Event Simulation::HeapPop() {
  const Event top = heap_[0];
  const Event last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  // Sift a hole down from the root: move the least child up until `last`
  // fits. With four children present the least one is found by a branch-free
  // tournament: each compare's result is added to an index or selects one
  // with a conditional move.
  size_t hole = 0;
  for (;;) {
    const size_t first = 4 * hole + 1;
    if (first >= n) {
      break;
    }
    size_t least;
    if (first + 3 < n) {
      const size_t a = first + Earlier(heap_[first + 1], heap_[first]);
      const size_t b = first + 2 + Earlier(heap_[first + 3], heap_[first + 2]);
      least = Earlier(heap_[b], heap_[a]) ? b : a;
    } else {
      least = first;
      for (size_t c = first + 1; c < n; ++c) {
        least = Earlier(heap_[c], heap_[least]) ? c : least;
      }
    }
    if (!Earlier(heap_[least], last)) {
      break;
    }
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = last;
  return top;
}

Simulation::Event Simulation::PopNext() {
  // The lane holds only events due now, in seq order; the heap may hold
  // older-seq events due now too. Taking whichever is earlier on (when, seq)
  // runs events in exactly the order one heap over both would.
  if (lane_head_ < lane_.size()) {
    const Event& front = lane_[lane_head_];
    if (!heap_.empty() && Earlier(heap_[0], front)) {
      return HeapPop();
    }
    const Event ev = front;
    if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    return ev;
  }
  return HeapPop();
}

bool Simulation::HasEventAtOrBefore(SimTime t) const {
  return (lane_head_ < lane_.size() && now_ <= t) || (!heap_.empty() && heap_[0].when <= t);
}

void Simulation::PushCallback(SimTime when, std::function<void()> fn) {
  uint32_t slot;
  if (free_callbacks_.empty()) {
    slot = static_cast<uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  Push(Event{when, next_seq_++, nullptr, slot});
}

void Simulation::Schedule(Duration delay, std::function<void()> fn) {
  FW_CHECK_MSG(!delay.is_negative(), "cannot schedule in the past");
  PushCallback(now_ + delay, std::move(fn));
}

void Simulation::ScheduleAt(SimTime when, std::function<void()> fn) {
  FW_CHECK_MSG(when >= now_, "cannot schedule in the past");
  PushCallback(when, std::move(fn));
}

void Simulation::set_profiler(fwobs::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler != nullptr) {
    dispatch_scope_ = profiler->RegisterScope("sim.event.dispatch");
    resume_scope_ = profiler->RegisterScope("sim.coro.resume");
  }
}

void Simulation::ScheduleResume(Duration delay, std::coroutine_handle<> h) {
  FW_CHECK_MSG(!delay.is_negative(), "cannot schedule in the past");
  FW_CHECK(h);
  Push(Event{now_ + delay, next_seq_++, h, 0});
}

uint64_t Simulation::Spawn(Co<void> co) {
  Root root = Root::Drive(std::move(co));
  uint32_t slot;
  if (free_roots_.empty()) {
    slot = static_cast<uint32_t>(roots_.size());
    FW_CHECK_MSG(slot < (uint32_t{1} << kRootSlotBits), "too many live root coroutines");
    roots_.emplace_back();
  } else {
    slot = free_roots_.back();
    free_roots_.pop_back();
  }
  const uint64_t spawn_number = ++spawned_;
  FW_CHECK_MSG(spawn_number < (uint64_t{1} << (64 - kRootSlotBits)), "root ids exhausted");
  const uint64_t id = (spawn_number << kRootSlotBits) | slot;
  roots_[slot] = RootSlot{root.handle, id};
  root.handle.promise().sim = this;
  root.handle.promise().slot = slot;
  ScheduleResume(Duration::Zero(), root.handle);
  return id;
}

bool Simulation::IsDone(uint64_t root_id) const {
  // A free slot holds id 0, which Spawn never returns.
  const uint64_t slot = root_id & ((uint64_t{1} << kRootSlotBits) - 1);
  return root_id == 0 || slot >= roots_.size() || roots_[slot].id != root_id;
}

void Simulation::OnRootDone(uint32_t slot) { dead_roots_.push_back(slot); }

void Simulation::ReclaimDeadRoots() {
  for (const uint32_t slot : dead_roots_) {
    RootSlot& root = roots_[slot];
    FW_CHECK(root.id != 0);
    root.frame.destroy();
    root = RootSlot{};
    free_roots_.push_back(slot);
  }
  dead_roots_.clear();
}

bool Simulation::StepOne() {
  if (lane_head_ == lane_.size() && heap_.empty()) {
    return false;
  }
  const Event ev = PopNext();
  FW_CHECK(ev.when >= now_);
  now_ = ev.when;
  ++events_processed_;
  {
    FW_PROFILE_SCOPE_ID(profiler_, dispatch_scope_);
    if (ev.h) {
      FW_PROFILE_SCOPE_ID(profiler_, resume_scope_);
      ev.h.resume();
    } else {
      // Moved out before the call: a callback that schedules callbacks may
      // grow `callbacks_`, and may take this slot, while it runs.
      std::function<void()> fn = std::exchange(callbacks_[ev.callback], nullptr);
      free_callbacks_.push_back(ev.callback);
      fn();
    }
  }
  if (!dead_roots_.empty()) {
    ReclaimDeadRoots();
  }
  return true;
}

void Simulation::Run() {
  stop_requested_ = false;
  while (!stop_requested_ && StepOne()) {
  }
}

bool Simulation::RunUntil(SimTime t) {
  stop_requested_ = false;
  while (!stop_requested_ && HasEventAtOrBefore(t)) {
    StepOne();
  }
  if (now_ < t && !stop_requested_) {
    now_ = t;
  }
  return lane_head_ < lane_.size() || !heap_.empty();
}

}  // namespace fwsim
