// Wall-clock time source for live-threads execution mode.
//
// RunClock is a SteadyClock rebased to an epoch captured at construction, so
// a live run's timestamps start near zero exactly like the simulator's
// virtual clock. That alignment is what lets the sim-vs-live digest
// cross-check compare event times as fractions of the run without carrying
// absolute epochs around. Its ticks are SteadyClock's hardware counter.

#ifndef SRC_LIVE_LIVE_CLOCK_H_
#define SRC_LIVE_LIVE_CLOCK_H_

#include "src/common/clock.h"

namespace atropos {

class RunClock final : public Clock {
 public:
  RunClock() : epoch_(base_.NowMicros()) {}

  TimeMicros NowMicros() const override {
    const TimeMicros now = base_.NowMicros();
    return now >= epoch_ ? now - epoch_ : 0;
  }
  // Ticks need no rebasing: only their differences are ever used.
  uint64_t NowTicks() const override { return base_.NowTicks(); }

 private:
  SteadyClock base_;
  TimeMicros epoch_;
};

}  // namespace atropos

#endif  // SRC_LIVE_LIVE_CLOCK_H_
