// Per-window end-to-end signal aggregation (paper §3.3 inputs).
//
// The WindowAggregator is the second layer of the decomposed runtime: it
// collects the request-lifecycle signals the detection stage consumes — the
// windowed latency histogram, completion count, in-flight request registry
// (for the overdue-convoy stall signal), and the T_exec accumulator the
// estimator uses as the normalization denominator (§3.5). It holds no
// decision state; the façade closes it once per Tick.
//
// Layout (DESIGN.md §17): the latency histogram is epoch-sliced so Roll() is
// O(1) instead of an O(buckets) memset, and the in-flight registry is a dense
// slot pool (DenseKeyIndex + intrusive live list) so the steady-state request
// lifecycle — start, end, drop — is allocation-free and CountOverdue walks a
// contiguous live list instead of a node-based hash map.
//
// Like the TaskLedger it holds no clock: request hooks take the event's raw
// stamp as `now`.

#ifndef SRC_ATROPOS_WINDOW_H_
#define SRC_ATROPOS_WINDOW_H_

#include <vector>

#include "src/atropos/dense_index.h"
#include "src/atropos/stats.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace atropos {

class WindowAggregator {
 public:
  // `start` opens the first window.
  WindowAggregator(TimeMicros start, AtroposStats* stats);

  // ---- Request lifecycle ---------------------------------------------------
  void OnRequestStart(uint64_t key, int client_class, TimeMicros now);
  void OnRequestEnd(uint64_t key, TimeMicros latency, int client_class, TimeMicros now);
  // Task teardown: any in-flight request under the key leaves with it.
  void DropKey(uint64_t key);

  // ---- Detection-stage inputs ----------------------------------------------
  uint64_t completions() const { return window_completions_; }
  TimeMicros P99() const { return window_latency_.P99(); }
  // In-flight SLO-class requests older than `slo` — the convoy signal that
  // makes a hard stall visible despite the survivor-biased completion p99.
  uint64_t CountOverdue(TimeMicros now, TimeMicros slo) const;

  // ---- Estimation-stage input ----------------------------------------------
  // T_base: the window's productive execution time — completed request time
  // attributed to the window, floored at the window length. In-flight blocked
  // time is deliberately excluded; it shows up as the per-resource delay D_r.
  TimeMicros ExecTimeFloored(TimeMicros now) const;

  // ---- Window boundary -----------------------------------------------------
  void Roll(TimeMicros now);
  TimeMicros window_start() const { return window_start_; }

 private:
  static constexpr uint32_t kNilSlot = DenseKeyIndex::kNotFound;

  // Unlinks and recycles an in-flight slot. Allocation-free.
  void ReleaseRequestSlot(uint32_t slot);

  AtroposStats* stats_;

  EpochLatencyHistogram window_latency_;
  uint64_t window_completions_ = 0;
  TimeMicros window_exec_time_ = 0;  // T_exec accumulator (completed requests)
  TimeMicros window_start_ = 0;

  // In-flight registry: dense slot pool with free-list recycling. The
  // intrusive live list exists so CountOverdue can walk exactly the live
  // slots; its order is irrelevant (CountOverdue only counts, matching the
  // order-free semantics of the hash map it replaces).
  DenseKeyIndex inflight_index_;  // request key -> slot
  std::vector<TimeMicros> req_start_;
  std::vector<int> req_class_;
  std::vector<uint32_t> req_prev_;
  std::vector<uint32_t> req_next_;
  std::vector<uint32_t> free_req_slots_;
  uint32_t inflight_head_ = kNilSlot;
  uint32_t inflight_tail_ = kNilSlot;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_WINDOW_H_
