#include "src/atropos/estimator.h"

#include <algorithm>
#include <vector>

namespace atropos {

namespace {

// A resource is overloaded only when its contention also exceeds this
// multiple of its *calibrated baseline* contention. Workloads have inherent
// queueing (a mutex at 50% utilization produces waits in steady state); only
// contention well above the healthy baseline marks a resource as the
// bottleneck.
constexpr double kContentionBaselineFactor = 2.5;

// Candidates whose predicted future resource gain is insignificant are never
// cancelled: a task that will release the resource within a fraction of one
// decision window resolves itself faster than a cancellation would.
// Time-class resources (lock/queue/cpu/io) compare against
// kMinGainWindowFraction * window; memory resources against
// kMinGainMemoryUnits.
constexpr double kMinGainWindowFraction = 0.5;
constexpr double kMinGainMemoryUnits = 4.0;

// Progress assumed for tasks that never report any (§3.4: GetNext model where
// available, developer API otherwise). 0.5 makes the future-gain factor
// (1-p)/p equal to 1, i.e. gain = current usage.
constexpr double kDefaultProgress = 0.5;

// Future-gain factor (1 - p) / p of §3.4: a task at 10% progress with usage U
// is predicted to demand 9U more; one at 90% only U/9.
double FutureFactor(double progress) {
  return (1.0 - progress) / progress;
}

}  // namespace

const Estimator::Output& Estimator::Estimate(const TaskLedger& ledger, TimeMicros exec_time,
                                             TimeMicros window_start, TimeMicros now) {
  Output& out = out_;
  now_ = now;
  out.all_resources.clear();
  out.policy_input.resources.clear();
  out.policy_input.candidates.clear();
  out.resource_overload = false;
  const size_t resource_count = ledger.resource_count();

  // ---- Per-resource window wait/hold: closed intervals were folded into
  // the resource windows as they completed; add the still-open intervals of
  // live tasks, clipped to this window. Deltas are dense (indexed by
  // resource slot = id - 1); untouched usage cells are all-zero and
  // contribute nothing, exactly like absent map entries did.
  deltas_.assign(resource_count, Delta{});
  Delta* deltas = deltas_.data();  // a raw pointer keeps the loop free of reloads
  for (uint32_t slot = ledger.live_head(); slot != TaskLedger::kNilSlot;
       slot = ledger.next_live(slot)) {
    const TaskResourceUsage* row = ledger.usage_row(slot);
    for (size_t r = 0; r < resource_count; r++) {
      const TaskResourceUsage& usage = row[r];
      if (usage.waiting) {
        TimeMicros from = std::max(usage.wait_started_at, window_start);
        if (now > from) {
          deltas[r].wait += now - from;
        }
      }
      if (usage.active_units > 0) {
        TimeMicros from = std::max(usage.hold_started_at, window_start);
        if (now > from) {
          deltas[r].hold += now - from;
        }
      }
    }
  }
  for (size_t r = 0; r < resource_count; r++) {
    const ResourceRecord& res = ledger.resource_at(r);
    deltas[r].wait += res.window.wait_time;
    deltas[r].hold += res.window.hold_time;
  }

  // ---- Contention levels (§3.4 formulas, §3.5 normalization).
  if (calibrating_ && baseline_contention_.size() < resource_count) {
    baseline_contention_.resize(resource_count);
  }
  double t_exec = static_cast<double>(std::max<TimeMicros>(exec_time, 1));
  for (size_t r = 0; r < resource_count; r++) {
    const ResourceRecord& res = ledger.resource_at(r);
    ResourceMetrics m;
    m.id = res.id;
    m.cls = res.cls;
    const Delta d = deltas[r];
    switch (res.cls) {
      case ResourceClass::kMemory: {
        // Eviction ratio sum(E_i) / sum(M_i); D_r = eviction time weighted by
        // the contention level.
        double gets = static_cast<double>(std::max<uint64_t>(res.window.gets, 1));
        m.contention_raw = static_cast<double>(res.window.slow_events) / gets;
        m.delay = static_cast<TimeMicros>(static_cast<double>(d.wait) * std::min(m.contention_raw, 1.0));
        break;
      }
      case ResourceClass::kLock:
      case ResourceClass::kQueue:
      case ResourceClass::kCpu:
      case ResourceClass::kIo: {
        // Wait-vs-use ratio; D_r is the measured waiting time.
        double hold = static_cast<double>(std::max<TimeMicros>(d.hold, 1));
        m.contention_raw = static_cast<double>(d.wait) / hold;
        m.delay = d.wait;
        break;
      }
    }
    // Normalized per resource as the fraction of window execution lost to
    // this resource: D_r / (T_base + D_r). Bounded in [0, 1) and independent
    // of stalls on *other* resources (a lock convoy must not dilute the
    // buffer pool's contention by inflating a shared denominator).
    m.contention_norm =
        static_cast<double>(m.delay) / (t_exec + static_cast<double>(m.delay));
    if (calibrating_) {
      // Record the healthy level; nothing is overloaded while calibrating.
      Baseline& baseline = baseline_contention_[m.id - 1];
      baseline.sum += m.contention_norm;
      baseline.windows++;
    } else {
      // Contention saturates near 1.0 in a full stall (T_exec then consists
      // of the blocked time itself), so the baseline-scaled floor is capped
      // below that ceiling.
      double floor = std::max(config_.contention_threshold,
                              std::min(kContentionBaselineFactor *
                                           BaselineContention(m.id),
                                       0.75));
      m.overloaded = m.contention_norm >= floor;
    }
    if (m.overloaded) {
      out.resource_overload = true;
    }
    out.all_resources.push_back(m);
  }

  // ---- Policy input: objectives are the overloaded resources.
  for (const ResourceMetrics& m : out.all_resources) {
    if (m.overloaded) {
      out.policy_input.resources.push_back(m);
    }
  }
  return out;
}

const PolicyInput& Estimator::ScoreCandidates(const TaskLedger& ledger) {
  PolicyInput& input = out_.policy_input;
  input.candidates.clear();
  const auto& objectives = input.resources;
  if (objectives.empty()) {
    return input;
  }
  const TimeMicros now = now_;

  // Raw gains per (task, objective). Live-list order is ascending TaskId, so
  // candidate order matches the map-based estimator byte for byte.
  auto& candidates = input.candidates;
  double min_time_gain = kMinGainWindowFraction * static_cast<double>(config_.window);
  for (uint32_t slot = ledger.live_head(); slot != TaskLedger::kNilSlot;
       slot = ledger.next_live(slot)) {
    const TaskRecord& task = ledger.task_at(slot);
    if (!task.alive) {
      continue;
    }
    const TaskResourceUsage* row_cells = ledger.usage_row(slot);
    PolicyInput::Candidate& c = candidates.emplace_back();
    c.task = task.id;
    c.key = task.key;
    c.cancellable = task.cancellable && task.cancel_count < kMaxCancelsPerTask;
    double factor = FutureFactor(task.Progress(kDefaultProgress));
    bool significant = false;
    for (const ResourceMetrics& m : objectives) {
      const TaskResourceUsage& u = row_cells[static_cast<size_t>(m.id) - 1];
      if (!u.touched) {
        // Never-touched pair: zero contribution, and — exactly like the
        // absent map entry it replaces — exempt from the significance test.
        c.gains.push_back(0.0);
        c.current_usage.push_back(0.0);
        continue;
      }
      double current = 0.0;
      if (m.cls == ResourceClass::kMemory) {
        // Pages (units) held right now.
        current = static_cast<double>(u.held_now());
      } else {
        // Accumulated holding/usage time (µs).
        current = static_cast<double>(u.HoldTimeAt(now));
      }
      c.current_usage.push_back(current);
      double gain = current * factor;
      c.gains.push_back(gain);
      double floor = m.cls == ResourceClass::kMemory ? kMinGainMemoryUnits : min_time_gain;
      if (gain >= floor) {
        significant = true;
      }
    }
    // A task predicted to release less than the significance floor resolves
    // itself faster than cancelling it would; it is never a useful victim.
    if (!significant) {
      c.cancellable = false;
    }
  }

  // Normalize each objective column to [0, 1] so that units (pages vs µs) are
  // comparable when scalarized (§3.5's "make contention level comparable"
  // requirement applies to gains too once multiple resources mix).
  for (size_t r = 0; r < objectives.size(); r++) {
    double max_gain = 0.0;
    double max_cur = 0.0;
    for (const PolicyInput::Candidate& c : candidates) {
      max_gain = std::max(max_gain, c.gains[r]);
      max_cur = std::max(max_cur, c.current_usage[r]);
    }
    for (PolicyInput::Candidate& c : candidates) {
      if (max_gain > 0.0) {
        c.gains[r] /= max_gain;
      }
      if (max_cur > 0.0) {
        c.current_usage[r] /= max_cur;
      }
    }
  }
  return input;
}

}  // namespace atropos
