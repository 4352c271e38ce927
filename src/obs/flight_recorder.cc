#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <utility>

namespace atropos {

std::string_view ObsEventKindName(ObsEventKind kind) {
  switch (kind) {
    case ObsEventKind::kRunStart:
      return "run_start";
    case ObsEventKind::kRunEnd:
      return "run_end";
    case ObsEventKind::kWindowClosed:
      return "window_closed";
    case ObsEventKind::kOverloadEntered:
      return "overload_entered";
    case ObsEventKind::kOverloadExited:
      return "overload_exited";
    case ObsEventKind::kContentionSnapshot:
      return "contention_snapshot";
    case ObsEventKind::kPolicyDecision:
      return "policy_decision";
    case ObsEventKind::kCancelIssued:
      return "cancel_issued";
    case ObsEventKind::kCancelCompleted:
      return "cancel_completed";
    case ObsEventKind::kTaskRetried:
      return "task_retried";
    case ObsEventKind::kTaskDropped:
      return "task_dropped";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void FlightRecorder::Record(FlightEvent ev) {
  if (!enabled_) {
    return;
  }
  ev.seq = total_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[head_] = std::move(ev);
  }
  if (++head_ == capacity_) {
    head_ = 0;
  }
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  ForEach([&out](const FlightEvent& ev) { out.push_back(ev); });
  return out;
}

void FlightRecorder::ForEach(const std::function<void(const FlightEvent&)>& fn) const {
  // Oldest event sits at head_ once every slot is built, else at 0.
  size_t start = ring_.size() == capacity_ ? head_ : 0;
  for (size_t i = 0; i < ring_.size(); i++) {
    fn(ring_[(start + i) % capacity_]);
  }
}

void FlightRecorder::AnnotateLast(ObsEventKind kind, const std::string& label) {
  for (size_t i = 0; i < ring_.size(); i++) {
    size_t idx = (head_ + capacity_ - 1 - i) % capacity_;
    if (ring_[idx].kind == kind) {
      if (ring_[idx].label.empty()) {
        ring_[idx].label = label;
      }
      return;
    }
  }
}

void FlightRecorder::Clear() {
  ring_.clear();  // keeps the reservation
  head_ = 0;
  total_ = 0;
}

}  // namespace atropos
