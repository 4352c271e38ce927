#include "src/sim/executor.h"

#include <utility>

namespace atropos {

uint64_t Executor::Run(TimeMicros until) {
  uint64_t processed = 0;
  while (has_pending()) {
    const bool call_first =
        wakes_.empty() || (!calls_.empty() && Before(calls_.top(), wakes_.top()));
    const TimeMicros t = call_first ? calls_.top().time : wakes_.top().time;
    if (t > until) {
      // Leave future events queued; advance the clock to the horizon so that
      // callers observing now() see the full elapsed interval.
      if (until != std::numeric_limits<TimeMicros>::max() && until > clock_.NowMicros()) {
        clock_.SetTime(until);
      }
      return processed;
    }
    clock_.SetTime(t);
    processed++;
    if (call_first) {
      Call call = calls_.Take();
      if (call.fn) {
        call.fn();
      }
    } else {
      std::coroutine_handle<> h = wakes_.Take().handle;
      if (h) {
        h.resume();
      }
    }
  }
  if (until != std::numeric_limits<TimeMicros>::max() && until > clock_.NowMicros()) {
    clock_.SetTime(until);
  }
  return processed;
}

}  // namespace atropos
