#include "src/common/status.h"

namespace atropos {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "ok";
  }
  std::string out(StatusCodeName(code_));
  if (message_ != nullptr) {
    out += ": ";
    out += *message_;
  }
  return out;
}

}  // namespace atropos
