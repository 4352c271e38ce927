// Deterministic discrete-event executor.
//
// The executor owns the virtual clock and a time-ordered event heap. Events at
// equal timestamps fire in submission order (FIFO tie-break by sequence
// number), which makes every simulation bit-for-bit reproducible for a given
// seed — the property all the paper-reproduction benches rely on.
//
// The order key is (time, seq). A producer that knows its schedule up front
// reserves its seqs (ReserveSeqs) and pushes each event only when it is next,
// so the heap holds in-flight work instead of the whole future schedule.

#ifndef SRC_SIM_EXECUTOR_H_
#define SRC_SIM_EXECUTOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "src/common/clock.h"

namespace atropos {

class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  TimeMicros now() const { return clock_.NowMicros(); }
  Clock* clock() { return &clock_; }

  // Resumes the coroutine at absolute virtual time `t` (clamped to now).
  void ResumeAt(TimeMicros t, std::coroutine_handle<> h) {
    events_.push(Event{ClampToNow(t), next_seq_++, h, {}});
  }
  void ResumeAfter(TimeMicros delay, std::coroutine_handle<> h) { ResumeAt(now() + delay, h); }

  // Reserves `n` consecutive tie-break seqs and returns the first. Resuming
  // with a reserved seq orders the event as if it had been pushed at the
  // moment of reservation, provided it is pushed before any event that would
  // follow it has fired.
  uint64_t ReserveSeqs(size_t n) {
    uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }
  void ResumeAt(TimeMicros t, std::coroutine_handle<> h, uint64_t reserved_seq) {
    events_.push(Event{ClampToNow(t), reserved_seq, h, {}});
  }

  // Runs an arbitrary callback at absolute virtual time `t`.
  void CallAt(TimeMicros t, std::function<void()> fn) {
    events_.push(Event{ClampToNow(t), next_seq_++, {}, std::move(fn)});
  }
  void CallAfter(TimeMicros delay, std::function<void()> fn) {
    CallAt(now() + delay, std::move(fn));
  }

  // Processes events in time order until the heap is empty or virtual time
  // would pass `until`. Returns the number of events processed. Events exactly
  // at `until` are processed.
  uint64_t Run(TimeMicros until = std::numeric_limits<TimeMicros>::max());

  bool has_pending() const { return !events_.empty(); }
  size_t pending_count() const { return events_.size(); }

  // Live coroutine-process accounting (maintained by Coro's promise); used by
  // tests to assert that scenarios fully drain.
  void OnProcStarted() { live_procs_++; }
  void OnProcFinished() { live_procs_--; }
  int64_t live_procs() const { return live_procs_; }

 private:
  struct Event {
    TimeMicros time;
    uint64_t seq;
    std::coroutine_handle<> handle;   // used when valid
    std::function<void()> callback;   // used otherwise

    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  TimeMicros ClampToNow(TimeMicros t) const { return t < now() ? now() : t; }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  ManualClock clock_;
  uint64_t next_seq_ = 0;
  int64_t live_procs_ = 0;
};

}  // namespace atropos

#endif  // SRC_SIM_EXECUTOR_H_
