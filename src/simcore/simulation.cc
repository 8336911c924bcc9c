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
    uint64_t id = 0;

    Root get_return_object() {
      return Root{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        h.promise().sim->OnRootDone(h.promise().id);
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
  // Destroy still-suspended roots; each recursively destroys awaited children.
  for (auto& [id, h] : roots_) {
    h.destroy();
  }
  roots_.clear();
}

void Simulation::InstallLogTimeSource() {
  // Route through the observability clock helper: FW_LOG prefixes and span
  // timestamps share one formatting path and can never disagree.
  fwbase::SetLogTimeSource([this] { return fwobs::FormatSimTime(now_); });
}

void Simulation::Push(const Event& ev) {
  queue_.push_back(ev);
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
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
  const uint64_t id = next_root_id_++;
  root.handle.promise().sim = this;
  root.handle.promise().id = id;
  roots_.emplace(id, root.handle);
  ScheduleResume(Duration::Zero(), root.handle);
  return id;
}

bool Simulation::IsDone(uint64_t root_id) const { return roots_.count(root_id) == 0; }

void Simulation::OnRootDone(uint64_t id) { dead_roots_.push_back(id); }

void Simulation::ReclaimDeadRoots() {
  for (uint64_t id : dead_roots_) {
    auto it = roots_.find(id);
    FW_CHECK(it != roots_.end());
    it->second.destroy();
    roots_.erase(it);
  }
  dead_roots_.clear();
}

bool Simulation::StepOne() {
  if (queue_.empty()) {
    return false;
  }
  std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
  const Event ev = queue_.back();
  queue_.pop_back();
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
  ReclaimDeadRoots();
  return true;
}

void Simulation::Run() {
  stop_requested_ = false;
  while (!stop_requested_ && StepOne()) {
  }
}

bool Simulation::RunUntil(SimTime t) {
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty() && queue_.front().when <= t) {
    StepOne();
  }
  if (now_ < t && !stop_requested_) {
    now_ = t;
  }
  return !queue_.empty();
}

}  // namespace fwsim
