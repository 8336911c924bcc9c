#include "src/obs/trace.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/strings.h"

namespace fwobs {

void Span::SetAttribute(std::string_view key, std::string_view value) {
  attrs_.emplace_back(key, value);
}

void Span::SetAttribute(std::string_view key, uint64_t value) {
  attrs_.emplace_back(key, fwbase::StrFormat("%llu", static_cast<unsigned long long>(value)));
}

void Span::SetAttribute(std::string_view key, double value) {
  attrs_.emplace_back(key, fwbase::StrFormat("%g", value));
}

std::string Span::ToString() const {
  return fwbase::StrFormat("%s [%s, %s]", name_.c_str(), FormatSimTime(start_).c_str(),
                           finished_ ? duration().ToString().c_str() : "open");
}

Tracer::Tracer(SimClockFn clock) : clock_(std::move(clock)) {
  FW_CHECK_MSG(clock_ != nullptr, "tracer needs a sim clock");
}

void Tracer::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
  bookkeeping_scope_ =
      profiler == nullptr ? 0 : profiler->RegisterScope("obs.span.bookkeeping");
}

Span* Tracer::StartSpan(std::string_view name, std::string_view category) {
  if (!enabled_) {
    return nullptr;
  }
  FW_PROFILE_SCOPE_ID(profiler_, bookkeeping_scope_);
  Span& span = spans_.emplace_back();
  span.name_ = name;
  span.category_ = category;
  span.id_ = next_id_++;
  span.parent_id_ = stack_.empty() ? kNoSpan : stack_.back()->id_;
  span.start_ = clock_();
  span.end_ = span.start_;
  stack_.push_back(&span);
  return &span;
}

void Tracer::EndSpan(Span* span) {
  if (span == nullptr || span->finished_) {
    return;
  }
  FW_PROFILE_SCOPE_ID(profiler_, bookkeeping_scope_);
  span->end_ = clock_();
  span->finished_ = true;
  auto it = std::find(stack_.rbegin(), stack_.rend(), span);
  if (it != stack_.rend()) {
    stack_.erase(std::next(it).base());
  }
}

std::vector<const Span*> Tracer::ChildrenOf(SpanId parent) const {
  std::vector<const Span*> children;
  for (const Span& span : spans_) {
    if (span.parent_id_ == parent) {
      children.push_back(&span);
    }
  }
  return children;
}

const Span* Tracer::FindSpan(const std::string& name) const {
  for (const Span& span : spans_) {
    if (span.name_ == name) {
      return &span;
    }
  }
  return nullptr;
}

void Tracer::Clear() {
  spans_.clear();
  stack_.clear();
}

}  // namespace fwobs
