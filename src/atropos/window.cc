#include "src/atropos/window.h"

#include <algorithm>

namespace atropos {

namespace {

// The client class the latency SLO applies to. Detection watches the
// latency-sensitive workload; long-running batch requests completing slowly
// are not SLO violations.
constexpr int kSloClientClass = 0;

}  // namespace

WindowAggregator::WindowAggregator(TimeMicros start, AtroposStats* stats)
    : stats_(stats), window_start_(start) {}

void WindowAggregator::ReleaseRequestSlot(uint32_t slot) {
  const uint32_t prev = req_prev_[slot];
  const uint32_t next = req_next_[slot];
  if (prev != kNilSlot) {
    req_next_[prev] = next;
  } else {
    inflight_head_ = next;
  }
  if (next != kNilSlot) {
    req_prev_[next] = prev;
  } else {
    inflight_tail_ = prev;
  }
  free_req_slots_.push_back(slot);
}

void WindowAggregator::OnRequestStart(uint64_t key, int client_class, TimeMicros now) {
  // One probe finds a live request under the key or inserts the key;
  // `index_cell` receives the new slot below.
  uint32_t& index_cell = inflight_index_.FindOrInsert(key);
  if (index_cell != kNilSlot) {
    // A second start under a live key: the application reused the key without
    // reporting the prior request's end. Treat it as an implicit end — the
    // stale slot would otherwise silently mis-attribute overdue_actives to
    // the wrong start time with no trace of the loss.
    stats_->request_restarts++;
    req_start_[index_cell] = now;
    req_class_[index_cell] = client_class;
    return;
  }
  uint32_t slot;
  if (!free_req_slots_.empty()) {
    slot = free_req_slots_.back();
    free_req_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(req_start_.size());
    req_start_.push_back(0);
    req_class_.push_back(0);
    req_prev_.push_back(kNilSlot);
    req_next_.push_back(kNilSlot);
  }
  req_start_[slot] = now;
  req_class_[slot] = client_class;
  req_prev_[slot] = inflight_tail_;
  req_next_[slot] = kNilSlot;
  if (inflight_tail_ != kNilSlot) {
    req_next_[inflight_tail_] = slot;
  } else {
    inflight_head_ = slot;
  }
  inflight_tail_ = slot;
  index_cell = slot;
}

void WindowAggregator::OnRequestEnd(uint64_t key, TimeMicros latency, int client_class,
                                    TimeMicros now) {
  if (client_class == kSloClientClass) {
    window_latency_.Record(latency);
    window_completions_++;
  }
  // T_exec contribution, clipped to the window so long requests don't inflate
  // the denominator with execution that belongs to earlier windows.
  TimeMicros in_window = now > window_start_ ? now - window_start_ : 0;
  window_exec_time_ += std::min(latency, in_window);
  DropKey(key);
}

void WindowAggregator::DropKey(uint64_t key) {
  const uint32_t slot = inflight_index_.Erase(key);
  if (slot != kNilSlot) {
    ReleaseRequestSlot(slot);
  }
}

uint64_t WindowAggregator::CountOverdue(TimeMicros now, TimeMicros slo) const {
  uint64_t overdue = 0;
  for (uint32_t slot = inflight_head_; slot != kNilSlot; slot = req_next_[slot]) {
    if (req_class_[slot] != kSloClientClass) {
      continue;  // long-running batch requests are not SLO violations
    }
    if (now > req_start_[slot] && now - req_start_[slot] > slo) {
      overdue++;
    }
  }
  return overdue;
}

TimeMicros WindowAggregator::ExecTimeFloored(TimeMicros now) const {
  return std::max<TimeMicros>(window_exec_time_, now - window_start_);
}

void WindowAggregator::Roll(TimeMicros now) {
  window_latency_.Reset();  // O(1) epoch bump
  window_completions_ = 0;
  window_exec_time_ = 0;
  window_start_ = now;
}

}  // namespace atropos
