// Deterministic discrete-event executor.
//
// The executor owns the virtual clock and the pending events. Events at equal
// timestamps fire in submission order (FIFO tie-break by sequence number),
// which makes every simulation bit-for-bit reproducible for a given seed —
// the property all the paper-reproduction benches rely on.
//
// The order key is (time, seq). Coroutine wake-ups, the hot case, sit in one
// heap of trivially copyable 24-byte entries; CallAt callbacks sit in a second
// heap beside their std::function. Seqs are drawn from one counter for both,
// so Run fires whichever head has the smaller key and the merged order is the
// one a single heap would give. A producer that knows its schedule up front
// reserves its seqs (ReserveSeqs) and pushes each event only when it is next,
// so the heaps hold in-flight work instead of the whole future schedule.

#ifndef SRC_SIM_EXECUTOR_H_
#define SRC_SIM_EXECUTOR_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <type_traits>
#include <utility>
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
    wakes_.push(Wake{ClampToNow(t), next_seq_++, h});
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
    wakes_.push(Wake{ClampToNow(t), reserved_seq, h});
  }

  // Runs an arbitrary callback at absolute virtual time `t`.
  void CallAt(TimeMicros t, std::function<void()> fn) {
    calls_.push(Call{ClampToNow(t), next_seq_++, std::move(fn)});
  }
  void CallAfter(TimeMicros delay, std::function<void()> fn) {
    CallAt(now() + delay, std::move(fn));
  }

  // Processes events in time order until none are pending or virtual time
  // would pass `until`. Returns the number of events processed. Events
  // exactly at `until` are processed.
  uint64_t Run(TimeMicros until = std::numeric_limits<TimeMicros>::max());

  bool has_pending() const { return !wakes_.empty() || !calls_.empty(); }
  size_t pending_count() const { return wakes_.size() + calls_.size(); }

  // Live coroutine-process accounting (maintained by Coro's promise); used by
  // tests to assert that scenarios fully drain.
  void OnProcStarted() { live_procs_++; }
  void OnProcFinished() { live_procs_--; }
  int64_t live_procs() const { return live_procs_; }

 private:
  struct Wake {
    TimeMicros time;
    uint64_t seq;
    std::coroutine_handle<> handle;
  };
  static_assert(std::is_trivially_copyable_v<Wake>);
  struct Call {
    TimeMicros time;
    uint64_t seq;
    std::function<void()> fn;
  };

  template <typename A, typename B>
  static bool Before(const A& a, const B& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  struct Later {
    template <typename E>
    bool operator()(const E& a, const E& b) const {
      return Before(b, a);
    }
  };

  // Min-heap on (time, seq) whose top can be moved out: a callback leaves
  // the heap without copying its std::function.
  template <typename E>
  struct Heap : std::priority_queue<E, std::vector<E>, Later> {
    E Take() {
      std::pop_heap(this->c.begin(), this->c.end(), this->comp);
      E top = std::move(this->c.back());
      this->c.pop_back();
      return top;
    }
  };

  TimeMicros ClampToNow(TimeMicros t) const { return t < now() ? now() : t; }

  Heap<Wake> wakes_;
  Heap<Call> calls_;
  ManualClock clock_;
  uint64_t next_seq_ = 0;
  int64_t live_procs_ = 0;
};

}  // namespace atropos

#endif  // SRC_SIM_EXECUTOR_H_
