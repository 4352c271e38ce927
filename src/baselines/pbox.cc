#include "src/baselines/pbox.h"

#include <algorithm>

namespace atropos {

PBox::PBox(Clock* clock, ControlSurface* surface, PBoxConfig config)
    : clock_(clock), surface_(surface), config_(config), window_start_(clock->NowMicros()) {}

void PBox::OnEvent(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kTaskRegistered:
      usage_[ev.key];
      break;
    case TraceEventKind::kTaskFreed:
      usage_.erase(ev.key);
      wait_start_.erase(ev.key);
      penalized_.erase(ev.key);
      break;
    case TraceEventKind::kGet: {
      auto it = usage_.find(ev.key);
      if (it == usage_.end()) {
        break;
      }
      Usage& u = it->second[ev.resource];
      if (u.held == 0) {
        u.hold_started = clock_->NowMicros();
      }
      u.held += ev.a;
      break;
    }
    case TraceEventKind::kFree: {
      auto it = usage_.find(ev.key);
      if (it == usage_.end()) {
        break;
      }
      Usage& u = it->second[ev.resource];
      uint64_t dec = std::min(u.held, ev.a);
      u.held -= dec;
      if (u.held == 0 && dec > 0) {
        u.hold_time += clock_->NowMicros() - u.hold_started;
      }
      break;
    }
    case TraceEventKind::kWaitBegin:
      wait_start_.emplace(ev.key, clock_->NowMicros());
      break;
    case TraceEventKind::kWaitEnd: {
      auto it = wait_start_.find(ev.key);
      if (it == wait_start_.end()) {
        break;
      }
      window_wait_[ev.resource] += clock_->NowMicros() - it->second;
      wait_start_.erase(it);
      break;
    }
    case TraceEventKind::kUsage: {
      // An after-the-fact report carries its durations: credit them directly
      // instead of wall-clocking a zero-width bracket.
      if (ev.a > 0) {
        window_wait_[ev.resource] += ev.a;
      }
      auto it = usage_.find(ev.key);
      if (it != usage_.end()) {
        it->second[ev.resource].hold_time += ev.b;
      }
      break;
    }
    default:
      break;
  }
}

void PBox::Tick() {
  TimeMicros now = clock_->NowMicros();
  TimeMicros window = now > window_start_ ? now - window_start_ : 1;
  window_start_ = now;

  // Find the most-contended resource this window.
  ResourceId hot = kInvalidResourceId;
  TimeMicros hot_wait = 0;
  for (const auto& [resource, wait] : window_wait_) {
    if (wait > hot_wait) {
      hot = resource;
      hot_wait = wait;
    }
  }
  window_wait_.clear();

  double contention = static_cast<double>(hot_wait) / static_cast<double>(window);
  if (hot == kInvalidResourceId || contention < config_.contention_threshold) {
    // Calm window: eventually lift penalties.
    if (++calm_ >= config_.calm_windows && !penalized_.empty()) {
      for (uint64_t key : penalized_) {
        surface_->ThrottleTask(key, 1.0);
      }
      penalized_.clear();
    }
    return;
  }
  calm_ = 0;

  // Penalize the top holder of the hot resource (isolation, not cancellation:
  // whatever it already holds stays held).
  uint64_t top_key = 0;
  double top_score = 0.0;
  for (const auto& [key, resources] : usage_) {
    auto it = resources.find(hot);
    if (it == resources.end()) {
      continue;
    }
    double score = static_cast<double>(it->second.held) +
                   static_cast<double>(it->second.HoldAt(now)) / 1000.0;
    if (score > top_score) {
      top_score = score;
      top_key = key;
    }
  }
  if (top_key != 0 && penalized_.count(top_key) == 0) {
    penalized_.insert(top_key);
    penalties_++;
    surface_->ThrottleTask(top_key, config_.penalty_factor);
  }
}

}  // namespace atropos
