// Span tracer driven by the simulated clock.
//
// A Span is one named, timed region of simulated work (a snapshot restore, a
// broker produce, a whole invocation). Spans nest: StartSpan records the
// currently-open span as the parent, so an Invoke produces a tree whose leaf
// durations decompose the end-to-end latency — the Fig 6/7 stacking measured
// instead of reconstructed.
//
// Recording is pure observation: starting or ending a span never advances the
// clock, schedules an event, or touches the RNG, so a traced run is
// bit-identical to an untraced one. A disabled tracer (the default) costs one
// branch per instrumentation point and records nothing: names, categories and
// attribute values arrive as std::string_view and become strings only inside
// a recorded span, so a disabled span allocates nothing (tests/obs_test.cc).
//
// Span pointers returned by StartSpan stay valid until Clear() (storage is a
// deque). ScopedSpan is the RAII form used at instrumentation sites; it
// tolerates a null tracer and early End() calls, and closes the span when the
// enclosing coroutine frame is destroyed on an error path.
#ifndef FIREWORKS_SRC_OBS_TRACE_H_
#define FIREWORKS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/obs/clock.h"
#include "src/obs/profiler.h"

namespace fwobs {

using fwbase::Duration;
using fwbase::SimTime;

using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

class Span {
 public:
  Span() = default;

  const std::string& name() const { return name_; }
  const std::string& category() const { return category_; }
  SpanId id() const { return id_; }
  SpanId parent_id() const { return parent_id_; }
  bool is_root() const { return parent_id_ == kNoSpan; }
  SimTime start() const { return start_; }
  SimTime end() const { return end_; }
  bool finished() const { return finished_; }
  Duration duration() const { return end_ - start_; }

  // Key/value annotations exported into the Chrome trace's "args".
  void SetAttribute(std::string_view key, std::string_view value);
  void SetAttribute(std::string_view key, uint64_t value);
  void SetAttribute(std::string_view key, double value);
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attrs_;
  }

  // "name [t=0.001000s, 1.20ms]" — timestamps via the single formatting path.
  std::string ToString() const;

 private:
  friend class Tracer;

  std::string name_;
  std::string category_;
  SpanId id_ = kNoSpan;
  SpanId parent_id_ = kNoSpan;
  SimTime start_;
  SimTime end_;
  bool finished_ = false;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

class Tracer {
 public:
  explicit Tracer(SimClockFn clock);

  // Disabled by default so every run (benches, examples, tests) is untraced
  // unless it opts in.
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Opens a span whose parent is the innermost still-open span. Returns
  // nullptr when disabled (every Span* path below is null-safe).
  Span* StartSpan(std::string_view name, std::string_view category = {});

  // Closes `span` at the current simulated time. Null-safe and idempotent.
  // Spans closed out of order (possible when coroutines interleave) are
  // removed from wherever they sit on the open stack; their children keep the
  // recorded parent links.
  void EndSpan(Span* span);

  // Innermost open span, or nullptr.
  Span* CurrentSpan() { return stack_.empty() ? nullptr : stack_.back(); }

  // All spans in start order; open spans have finished() == false.
  const std::deque<Span>& spans() const { return spans_; }
  size_t span_count() const { return spans_.size(); }

  // Direct children of `parent`, in start order.
  std::vector<const Span*> ChildrenOf(SpanId parent) const;
  // First span with the given name, or nullptr.
  const Span* FindSpan(const std::string& name) const;

  // Drops every recorded span (invalidates outstanding Span pointers).
  void Clear();

  // Attributes span bookkeeping cost (allocation, parent lookup, mid-stack
  // removal) to `profiler`'s "obs.span.bookkeeping" scope. Observation only;
  // pass nullptr to detach. Wired automatically by Observability.
  void set_profiler(Profiler* profiler);

 private:
  SimClockFn clock_;
  Profiler* profiler_ = nullptr;
  ProfScopeId bookkeeping_scope_ = 0;
  bool enabled_ = false;
  SpanId next_id_ = 1;
  // Observational buffer, not a dispatch queue: growth tracks completed
  // spans and tests/benches drain it with TakeSpans().
  std::deque<Span> spans_;  // fwlint:allow(unbounded-queue)
  std::vector<Span*> stack_;  // Open spans, innermost last.
};

// RAII instrumentation point. Usage:
//   fwobs::ScopedSpan span(tracer_, "invoke.restore");
//   ... co_await work ...
//   span.End();  // Optional; the destructor ends it otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view category = {})
      : tracer_(tracer),
        span_(tracer != nullptr && tracer->enabled() ? tracer->StartSpan(name, category)
                                                     : nullptr) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Safe to call early and more than once; the destructor is then a no-op.
  void End() {
    if (span_ != nullptr) {
      tracer_->EndSpan(span_);
    }
  }

  // The underlying span (valid after End(), until the tracer is cleared);
  // nullptr when tracing is disabled.
  Span* get() const { return span_; }

  void SetAttribute(std::string_view key, std::string_view value) {
    if (span_ != nullptr) {
      span_->SetAttribute(key, value);
    }
  }
  void SetAttribute(std::string_view key, uint64_t value) {
    if (span_ != nullptr) {
      span_->SetAttribute(key, value);
    }
  }
  void SetAttribute(std::string_view key, double value) {
    if (span_ != nullptr) {
      span_->SetAttribute(key, value);
    }
  }

 private:
  Tracer* tracer_;
  Span* span_;
};

}  // namespace fwobs

#endif  // FIREWORKS_SRC_OBS_TRACE_H_
