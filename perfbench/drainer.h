// The control-loop thread the live and ingest workloads run: it ticks a
// ConcurrentFrontend once per control window, on a fixed schedule, and
// records what the intake layer cost.

#ifndef PERFBENCH_DRAINER_H_
#define PERFBENCH_DRAINER_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/atropos/concurrent_frontend.h"

namespace perfbench {

// Every run records the thread's CPU time inside Tick() and, between Ticks
// about once a second, times a reference slice (SpeedProbe) on the same
// thread. A slice evicts the next Tick's working set from the caches, so it
// runs rarely. A traced run also records each Tick's wall time, the deepest ring
// seen, and a span per Tick.
class Drainer {
 public:
  Drainer(atropos::ConcurrentFrontend* frontend, atropos::TimeMicros window, bool trace);
  ~Drainer() { Stop(); }

  Drainer(const Drainer&) = delete;
  Drainer& operator=(const Drainer&) = delete;

  // Stops ticking and joins the thread; the caller may then run the final
  // Tick itself. Idempotent.
  void Stop();

  // Read after Stop().
  int64_t cpu_ns() const { return cpu_ns_; }
  uint64_t ticks() const { return ticks_; }
  const SpeedProbe& probe() const { return probe_; }
  const SpanLog& spans() const { return spans_; }

  // Reports the intake.* per-layer metrics for `requests` requests, given
  // the frontend's totals after the final Tick.
  void ReportIntake(const atropos::ConcurrentFrontend::IntakeStats& intake, uint64_t requests,
                    Report* report);

 private:
  void Loop();

  atropos::ConcurrentFrontend* frontend_;
  atropos::TimeMicros window_;
  bool trace_;
  int64_t cpu_ns_ = 0;
  uint64_t ticks_ = 0;
  SpeedProbe probe_;
  int64_t wall_ns_ = 0;             // traced run only, like the rest below
  uint64_t max_ring_depth_ = 0;
  std::vector<double> tick_us_;
  SpanLog spans_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRAINER_H_
