// Minimal Status / Result<T> types for recoverable errors.
//
// The simulator does not use exceptions: operations that can fail in ways a
// caller should handle (e.g. snapshot-store eviction, NAT misconfiguration,
// out-of-memory) return Status or Result<T>. Programming errors use FW_CHECK.
#ifndef FIREWORKS_SRC_BASE_STATUS_H_
#define FIREWORKS_SRC_BASE_STATUS_H_

#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "src/base/check.h"

namespace fwbase {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kFailedPrecondition,
  kResourceExhausted,
  kUnavailable,
  kInternal,
  kDeadlineExceeded,
  kDataLoss,
};

const char* StatusCodeName(StatusCode code);

// A code and an optional message. The message lives behind a pointer that is
// null when empty, so a Status is 16 bytes and an OK or message-less status
// allocates nothing; a copy deep-copies the message, and a moved-from Status
// keeps its code with an empty message.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty() ? nullptr
                                 : std::make_unique<const std::string>(std::move(message))) {}
  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_ == nullptr ? nullptr
                                           : std::make_unique<const std::string>(*other.message_)) {}
  Status& operator=(const Status& other) {
    *this = Status(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m) { return Status(StatusCode::kNotFound, std::move(m)); }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Internal(std::string m) { return Status(StatusCode::kInternal, std::move(m)); }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status DataLoss(std::string m) { return Status(StatusCode::kDataLoss, std::move(m)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    static const std::string kEmpty;
    return message_ != nullptr ? *message_ : kEmpty;
  }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message();
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<const std::string> message_;  // Null when empty.
};
static_assert(sizeof(fwbase::Status) == 16);

// Result<T> holds either a value or an error Status. Accessing the value of an
// error result is a programming error (FW_CHECK).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    FW_CHECK_MSG(!std::get<Status>(v_).ok(), "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const T& value() const& {
    FW_CHECK_MSG(ok(), status_ref().ToString().c_str());
    return std::get<T>(v_);
  }
  T& value() & {
    FW_CHECK_MSG(ok(), status_ref().ToString().c_str());
    return std::get<T>(v_);
  }
  T&& value() && {
    FW_CHECK_MSG(ok(), status_ref().ToString().c_str());
    return std::get<T>(std::move(v_));
  }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(v_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  const Status& status_ref() const { return std::get<Status>(v_); }
  std::variant<T, Status> v_;
};

}  // namespace fwbase

#endif  // FIREWORKS_SRC_BASE_STATUS_H_
