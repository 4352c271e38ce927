// Detached simulation processes as C++20 coroutines.
//
// A Coro is an eagerly-started, self-destroying coroutine — the SimPy-style
// "process". Application request handlers and background tasks are Coros; they
// suspend on awaitables (Delay, lock acquires, queue pops) and are resumed by
// the Executor at the right virtual time. Frames come from the per-thread
// frame pool (frame_pool.h).

#ifndef SRC_SIM_CORO_H_
#define SRC_SIM_CORO_H_

#include <coroutine>
#include <utility>

#include "src/common/clock.h"
#include "src/sim/executor.h"
#include "src/sim/frame_pool.h"

namespace atropos {

// Fire-and-forget coroutine. The frame owns itself: it starts running as soon
// as the coroutine function is called and destroys itself when it finishes.
// Completion signalling, when needed, is done explicitly (e.g. via SimEvent or
// a metrics callback) — exactly how real request handlers report completion.
class Coro {
 public:
  struct promise_type : PooledFrame {
    Executor* executor = nullptr;

    Coro get_return_object() { return Coro{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept {
      if (executor != nullptr) {
        executor->OnProcFinished();
      }
      return {};
    }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

// Awaitable that binds the enclosing Coro to an executor (for live-process
// accounting) — every process should `co_await BindExecutor{ex}` first.
// Implemented as an immediate (non-suspending) awaitable.
struct BindExecutor {
  Executor& executor;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<Coro::promise_type> h) noexcept {
    h.promise().executor = &executor;
    executor.OnProcStarted();
    return false;  // do not actually suspend
  }
  void await_resume() const noexcept {}
};

// Suspends the process for `delay` virtual microseconds.
struct Delay {
  Executor& executor;
  TimeMicros delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { executor.ResumeAfter(delay, h); }
  void await_resume() const noexcept {}
};

// Suspends the process until absolute time `at`, ordered by a tie-break seq
// reserved earlier with Executor::ReserveSeqs.
struct ResumeAtReserved {
  Executor& executor;
  TimeMicros at;
  uint64_t seq;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { executor.ResumeAt(at, h, seq); }
  void await_resume() const noexcept {}
};

// Yields the processor: re-schedules at the current virtual time, behind any
// already-queued events. Useful to break ties deterministically.
struct YieldNow {
  Executor& executor;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { executor.ResumeAfter(0, h); }
  void await_resume() const noexcept {}
};

}  // namespace atropos

#endif  // SRC_SIM_CORO_H_
