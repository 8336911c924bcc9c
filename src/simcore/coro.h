// Lazy coroutine task type for the discrete-event kernel.
//
// Co<T> is a lazily-started coroutine that is awaited exactly once. Awaiting it
// starts the child via symmetric transfer; when the child reaches its final
// suspend it transfers control back to the awaiting parent. The Co object owns
// the coroutine frame: because the awaiter lives inside the parent's frame for
// the duration of the co_await full-expression, destroying a suspended parent
// frame recursively destroys every child frame it is awaiting. Top-level
// coroutines are driven and reclaimed by Simulation::Spawn (see simulation.h).
//
// TOOLCHAIN CONSTRAINT (GCC 12): class types that cross a coroutine boundary —
// by-value parameters, and temporaries materialized inside a co_await full
// expression — MUST NOT be aggregates. GCC 12 copies aggregate objects into
// the coroutine frame bitwise instead of invoking their copy/move constructor,
// which leaves libstdc++ SSO std::string members pointing into the dead frame
// (verified with a minimal reproducer; fixed in later GCC). Any struct used in
// a coroutine signature therefore declares at least one constructor; this is
// checked with static_asserts (!std::is_aggregate_v<T>) at the use sites.
// A second GCC 12 hazard: the conditional operator with co_await on both arms
// (`c ? co_await a : co_await b`) miscompiles and crashes at runtime — write
// an if/else into a named variable instead.
#ifndef FIREWORKS_SRC_SIMCORE_CORO_H_
#define FIREWORKS_SRC_SIMCORE_CORO_H_

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/base/check.h"

namespace fwsim {

namespace coro_internal {

// Final awaiter shared by all Co promises: symmetric-transfer to whoever
// awaited us (std::noop_coroutine if nobody did, which parks the chain).
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
    return h.promise().continuation;
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation = std::noop_coroutine();

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() const noexcept { std::terminate(); }
};

// Where a coroutine's co_return lands: the value for Co<T>, nothing for
// Co<void>.
template <typename T>
struct ValuePromise : PromiseBase {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct ValuePromise<void> : PromiseBase {
  void return_void() const noexcept {}
};

}  // namespace coro_internal

template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type : coro_internal::ValuePromise<T> {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Co(Co&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      DestroyFrame();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~Co() { DestroyFrame(); }

  // Awaiting starts the child coroutine; the child resumes us on completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() noexcept(std::is_void_v<T>) {
        if constexpr (!std::is_void_v<T>) {
          FW_CHECK_MSG(h.promise().value.has_value(), "Co<T> completed without a value");
          return std::move(*h.promise().value);
        }
      }
    };
    return Awaiter{h_};
  }

 private:
  friend class Simulation;

  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}

  void DestroyFrame() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_;
};

}  // namespace fwsim

#endif  // FIREWORKS_SRC_SIMCORE_CORO_H_
