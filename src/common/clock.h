// Time sources.
//
// Everything in this library reads time through the Clock interface so that the
// same Atropos runtime code runs against wall-clock time in a real deployment
// and against the deterministic virtual clock of the discrete-event simulator.

#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace atropos {

// Simulated / real time in microseconds since an arbitrary epoch.
using TimeMicros = uint64_t;

inline constexpr TimeMicros kMicrosPerMilli = 1000;
inline constexpr TimeMicros kMicrosPerSecond = 1000 * 1000;

constexpr TimeMicros Millis(uint64_t ms) { return ms * kMicrosPerMilli; }
constexpr TimeMicros Seconds(double s) {
  return static_cast<TimeMicros>(s * static_cast<double>(kMicrosPerSecond));
}
constexpr double ToSeconds(TimeMicros t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSecond);
}
constexpr double ToMillis(TimeMicros t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerMilli);
}

// Abstract monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeMicros NowMicros() const = 0;
  // A monotonic counter in unspecified units, as cheap to read as the clock
  // allows. Only the difference of two readings means anything; turning one
  // into microseconds takes a (NowTicks, NowMicros) pair read at a known
  // point (ConcurrentFrontend does this once per Tick). By default a tick is
  // a microsecond.
  virtual uint64_t NowTicks() const { return NowMicros(); }
};

// Clock backed by std::chrono::steady_clock, for real deployments and for
// measuring the real cost of the tracing APIs in the overhead benchmarks.
class SteadyClock final : public Clock {
 public:
  TimeMicros NowMicros() const override {
    auto d = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<TimeMicros>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  }
  // The CPU's invariant counter, cheaper to read than steady_clock: the TSC
  // on x86-64, the virtual counter on aarch64, steady_clock nanoseconds
  // elsewhere. Not serializing, so a reading may move by a few cycles
  // against neighbouring instructions.
  uint64_t NowTicks() const override {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    uint64_t ticks;
    asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
    return ticks;
#else
    auto d = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
#endif
  }
};

// Manually advanced clock; the simulator event loop owns one and moves it
// forward as events fire. Also convenient in unit tests.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(TimeMicros start = 0) : now_(start) {}

  TimeMicros NowMicros() const override { return now_; }

  void Advance(TimeMicros delta) { now_ += delta; }
  void SetTime(TimeMicros t) { now_ = t; }

 private:
  TimeMicros now_;
};

}  // namespace atropos

#endif  // SRC_COMMON_CLOCK_H_
