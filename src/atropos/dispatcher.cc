#include "src/atropos/dispatcher.h"

#include <algorithm>

#include "src/common/logging.h"

namespace atropos {

void CancelDispatcher::Dispatch(uint64_t key, double score, TimeMicros now) {
  if (cancelled_keys_.emplace(key, calm_windows_total_).second) {
    stats_->cancelled_keys_inserted++;
  }
  last_cancel_time_ = now;
  ever_cancelled_ = true;
  stats_->cancels_issued++;
  LOG_INFO("atropos: cancelling task key=%llu score=%.3f",
           static_cast<unsigned long long>(key), score);
  if (cancel_observer_) {
    cancel_observer_(key, score);
  }
  // Safe cancellation through the application's initiator (§3.6).
  if (cancel_action_) {
    cancel_action_(key);
  } else if (surface_ != nullptr) {
    surface_->CancelTask(key, CancelReason::kCulprit);
  }
}

void CancelDispatcher::ObserveWindow(bool resource_overload) {
  if (resource_overload) {
    calm_windows_ = 0;
    return;
  }
  calm_windows_++;
  calm_windows_total_++;
  // Age the §4 cancelled-key memo: an entry that survived
  // `reexec_calm_windows` calm windows since its cancellation belongs to a
  // client that never retried — without aging, such keys accumulate forever
  // under sustained traffic. The floor of one calm window keeps insertion
  // (always in an overload window) and eviction in distinct windows even when
  // reexec_calm_windows is 0.
  const uint64_t horizon = static_cast<uint64_t>(std::max(config_.reexec_calm_windows, 1));
  for (auto it = cancelled_keys_.begin(); it != cancelled_keys_.end();) {
    if (calm_windows_total_ - it->second >= horizon) {
      it = cancelled_keys_.erase(it);
      stats_->cancelled_keys_evicted++;
    } else {
      ++it;
    }
  }
}

bool CancelDispatcher::ConsumeCancelledKey(uint64_t key) {
  if (cancelled_keys_.empty()) {
    return false;  // the usual case: skips hashing the key
  }
  auto memo = cancelled_keys_.find(key);
  if (memo == cancelled_keys_.end()) {
    return false;
  }
  cancelled_keys_.erase(memo);
  stats_->cancelled_keys_consumed++;
  return true;
}

}  // namespace atropos
