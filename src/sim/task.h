// Joinable coroutine type for composing simulation logic.
//
// Task<T> is a lazy coroutine: it starts when awaited and resumes its awaiter
// when it finishes (symmetric transfer). Application helpers (acquire-a-page,
// consume-cpu, write-wal, ...) return Task<Status> so request handlers — which
// are detached Coros — can compose them with plain co_await. Frames come from
// the per-thread frame pool (frame_pool.h).

#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <optional>
#include <utility>

#include "src/sim/frame_pool.h"

namespace atropos {

template <typename T>
class Task;

namespace internal {

template <typename T>
struct TaskPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { std::terminate(); }
};

}  // namespace internal

template <typename T>
class Task {
 public:
  struct promise_type : internal::TaskPromiseBase<T> {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;  // start the task
  }
  T await_resume() { return std::move(*handle_.promise().value); }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

template <>
class Task<void> {
 public:
  struct promise_type : internal::TaskPromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;
  }
  void await_resume() {}

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace atropos

#endif  // SRC_SIM_TASK_H_
