// The Atropos runtime façade (paper §3, Fig 5).
//
// The control loop is one fixed chain of layers with narrow interfaces:
//
//   instrumentation stream                     Tick() once per window
//        │                                           │
//        ▼                                           ▼
//   TaskLedger ───────────── window books ──► OverloadDetector §3.3
//   (registries, §3.1–3.2    WindowAggregator       │ signal
//    usage accounting,       (latency/T_exec         ▼
//    conservation ledger)     convoy signals)  Estimator::Estimate §3.4
//                                              (contention, overloaded
//                                               flags — every window)
//                                                    │ suspected overload,
//                                                    │ resource confirmed,
//                                                    │ pacing admits
//                                                    ▼
//                                              Estimator::ScoreCandidates
//                                              (per-task gains) →
//                                              SelectVictim §3.5
//                                              (config.policy)
//                                                    │ victim
//                                                    ▼
//                                              CancelDispatcher
//                                              (§3.6 safe initiator routing,
//                                               pacing, §4 fairness memo)
//
// AtroposRuntime wires the layers and remains an OverloadController, so
// applications integrate it exactly like the baseline controllers: feed the
// instrumentation stream and call Tick() once per window. The Fig-13
// ablation variants differ only in config.policy, which SelectVictim
// dispatches on; detection and estimation are the paper's in all three.

#ifndef SRC_ATROPOS_RUNTIME_H_
#define SRC_ATROPOS_RUNTIME_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/controller.h"
#include "src/atropos/detector.h"
#include "src/atropos/dispatcher.h"
#include "src/atropos/estimator.h"
#include "src/atropos/ledger.h"
#include "src/atropos/policy.h"
#include "src/atropos/stats.h"
#include "src/atropos/trace_event.h"
#include "src/atropos/window.h"
#include "src/common/clock.h"
#include "src/obs/flight_recorder.h"

namespace atropos {

class AtroposRuntime final : public OverloadController {
 public:
  // Breakwater detection, gain estimation, and the selection policy named by
  // config.policy.
  AtroposRuntime(Clock* clock, AtroposConfig config);

  std::string_view name() const override { return "atropos"; }

  // ---- Integration API (paper Fig 6a) -----------------------------------
  // The application's cancellation initiator; invoked with the task key.
  void SetCancelAction(std::function<void(uint64_t)> initiator) {
    dispatcher_.SetCancelAction(std::move(initiator));
  }
  void SetControlSurface(ControlSurface* surface) { dispatcher_.SetControlSurface(surface); }

  // ---- Resource registration ---------------------------------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls) override {
    return ledger_.RegisterResource(std::move(name), cls);
  }
  const ResourceRecord* FindResource(ResourceId id) const { return ledger_.FindResource(id); }

  // ---- Instrumentation stream ---------------------------------------------
  // Applies one timestamped event, with `ev.time` as the event's `now`.
  // ConcurrentFrontend's drainer calls it with the stamps its producers took,
  // converted to µs.
  [[gnu::always_inline]] void Apply(const TraceEvent& ev);

  // Stamps the clock once for the kinds the ledger or window time, then
  // applies; TaskFreed, Usage and Progress read no clock. Always inlined, so
  // OnEvent(TraceEvent::Get(...)) called on the runtime's concrete type folds
  // to at most one clock read and one ledger or window call. A named hook
  // reaches the out-of-line copy through the vtable: GCC does not
  // devirtualize a call made inside an inlined base-class method.
  [[gnu::always_inline]] void OnEvent(const TraceEvent& ev) override {
    TraceEvent stamped = ev;
    if (ev.kind != TraceEventKind::kTaskFreed && ev.kind != TraceEventKind::kUsage &&
        ev.kind != TraceEventKind::kProgress) {
      stamped.time = clock_->NowMicros();
    }
    Apply(stamped);
  }

  // ---- Control loop --------------------------------------------------------
  // Closes the current window: detection, estimation, and (when confirmed)
  // candidate scoring and cancellation of the selected culprit.
  void Tick() override;

  // ---- Fairness / re-execution (§4) ---------------------------------------
  bool ReexecutionRecommended() const override {
    return dispatcher_.ReexecutionRecommended();
  }

  // ---- Introspection -------------------------------------------------------
  const AtroposStats& stats() const { return stats_; }
  const AtroposConfig& config() const { return config_; }
  const OverloadDetector& detector() const { return detector_; }
  // Normalized contention of the last closed window, by resource.
  const std::vector<ResourceMetrics>& last_metrics() const { return last_metrics_; }
  TimestampMode effective_timestamp_mode() const { return ledger_.effective_mode(); }
  const TaskRecord* FindTask(uint64_t key) const { return ledger_.FindTask(key); }
  // The (task, resource) usage cell; null when unknown or never touched.
  const TaskResourceUsage* FindUsage(uint64_t key, ResourceId resource) const {
    return ledger_.FindUsage(key, resource);
  }
  // Resource ids the task's tracing events have touched, ascending.
  std::vector<ResourceId> UsedResources(uint64_t key) const {
    return ledger_.UsedResources(key);
  }
  size_t live_task_count() const { return ledger_.live_task_count(); }
  // Live entries of the §4 cancelled-key memo (bounded by calm-window aging).
  size_t cancelled_key_count() const { return dispatcher_.cancelled_key_count(); }
  // Total windows ever closed without resource overload; the aging epoch the
  // memo entries are stamped with.
  uint64_t calm_windows_total() const { return dispatcher_.calm_windows_total(); }
  bool has_cancel_initiator() const { return dispatcher_.has_initiator(); }

  // Layer access for tests.
  const TaskLedger& ledger() const { return ledger_; }
  const WindowAggregator& window() const { return window_; }

  // ---- Accounting audit (fuzzer oracles) ----------------------------------
  using ResourceAudit = atropos::ResourceAudit;
  std::vector<ResourceAudit> AuditAccounting() const { return ledger_.AuditAccounting(); }

  // Test hook observing every issued cancellation.
  void SetCancelObserver(std::function<void(uint64_t key, double score)> observer) {
    dispatcher_.SetCancelObserver(std::move(observer));
  }

  // Attach a decision flight recorder (non-owning). Every window boundary,
  // overload transition, contention snapshot, policy verdict, and issued
  // cancellation is recorded; a null or disabled recorder costs one branch
  // per Tick().
  void SetRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  Clock* clock_;
  AtroposConfig config_;
  AtroposStats stats_;

  TaskLedger ledger_;
  WindowAggregator window_;
  OverloadDetector detector_;
  Estimator estimator_;
  CancelDispatcher dispatcher_;

  FlightRecorder* recorder_ = nullptr;
  bool recording_overload_ = false;  // tracks entered/exited transitions

  std::vector<ResourceMetrics> last_metrics_;
};

// Always inlined: a constant kind then folds the switch away.
inline void AtroposRuntime::Apply(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kTaskRegistered: {
      // §4: a re-executed (previously cancelled) task is non-cancellable so
      // the next overload targets a different culprit. The memo entry is
      // consumed either way.
      const bool reexecuted = dispatcher_.ConsumeCancelledKey(ev.key);
      ledger_.RegisterTask(ev.key, ev.background, ev.cancellable && !reexecuted, ev.time);
      break;
    }
    case TraceEventKind::kTaskFreed:
      ledger_.FreeTask(ev.key);
      window_.DropKey(ev.key);
      break;
    case TraceEventKind::kGet:
      ledger_.RecordGet(ev.key, ev.resource, ev.a, ev.time);
      break;
    case TraceEventKind::kFree:
      ledger_.RecordFree(ev.key, ev.resource, ev.a, ev.time);
      break;
    case TraceEventKind::kWaitBegin:
      ledger_.RecordWaitBegin(ev.key, ev.resource, ev.time);
      break;
    case TraceEventKind::kWaitEnd:
      ledger_.RecordWaitEnd(ev.key, ev.resource, ev.time);
      break;
    case TraceEventKind::kRequestStart:
      window_.OnRequestStart(ev.key, ev.client_class, ev.time);
      break;
    case TraceEventKind::kRequestEnd:
      window_.OnRequestEnd(ev.key, ev.a, ev.client_class, ev.time);
      break;
    case TraceEventKind::kUsage:
      ledger_.RecordUsage(ev.key, ev.resource, ev.a, ev.b);
      break;
    case TraceEventKind::kProgress:
      ledger_.RecordProgress(ev.key, ev.a, ev.b);
      break;
  }
}

}  // namespace atropos

#endif  // SRC_ATROPOS_RUNTIME_H_
