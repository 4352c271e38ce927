// Lightweight error-propagation types used across the library.
//
// The library does not throw exceptions across module boundaries; fallible
// operations return Status (or StatusOr<T> when they produce a value).

#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace atropos {

enum class StatusCode {
  kOk = 0,
  kCancelled = 1,        // The owning task was cancelled while blocked or running.
  kTimeout = 2,          // A bounded wait expired.
  kInvalidArgument = 3,  // Caller passed an out-of-contract value.
  kNotFound = 4,         // Lookup failed.
  kAlreadyExists = 5,    // Insertion conflicted with an existing entry.
  kResourceExhausted = 6,  // A bounded resource (queue, pool) rejected the request.
  kFailedPrecondition = 7,  // Object is in the wrong state for the operation.
  kUnavailable = 8,      // Transient refusal; the caller may retry.
  kInternal = 9,         // Invariant violation inside the library.
};

// Returns the canonical lowercase name of a status code, e.g. "cancelled".
std::string_view StatusCodeName(StatusCode code);

// Value type carrying a StatusCode and an optional human-readable message.
// The message is immutable and shared between copies; it is null when empty,
// so a status without one (every OK status) holds no heap state and a move
// is a pointer move.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  explicit Status(StatusCode code) : code_(code) {}
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty() ? nullptr
                                 : std::make_shared<const std::string>(std::move(message))) {}

  static Status Ok() { return Status(); }
  static Status Cancelled(std::string msg = "") { return Status(StatusCode::kCancelled, std::move(msg)); }
  static Status Timeout(std::string msg = "") { return Status(StatusCode::kTimeout, std::move(msg)); }
  static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg = "") { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status AlreadyExists(std::string msg = "") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = "") {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg = "") { return Status(StatusCode::kInternal, std::move(msg)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    static const std::string kNoMessage;
    return message_ != nullptr ? *message_ : kNoMessage;
  }

  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }

  // "ok" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_;
  std::shared_ptr<const std::string> message_;
};

// Holds either a value of type T or a non-OK Status explaining its absence.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace atropos

#endif  // SRC_COMMON_STATUS_H_
