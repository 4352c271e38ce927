// The Atropos runtime façade (paper §3, Fig 5).
//
// The control loop is decomposed into four layers with narrow interfaces:
//
//   instrumentation stream                      Tick() once per window
//        │                                            │
//        ▼                                            ▼
//   TaskLedger ───────────── window books ──► DecisionPipeline
//   (registries, §3.1–3.2    WindowAggregator  (DetectionStage §3.3 →
//    usage accounting,       (latency/T_exec    EstimationStage §3.4 →
//    conservation ledger)     convoy signals)   SelectionPolicy §3.5)
//                                                     │ victim
//                                                     ▼
//                                             CancelDispatcher
//                                             (§3.6 safe initiator routing,
//                                              pacing, §4 fairness memo)
//
// AtroposRuntime wires the layers and remains an OverloadController, so
// applications integrate it exactly like the baseline controllers: feed the
// instrumentation stream and call Tick() once per window. The decision stages
// are pluggable — the Fig-13 ablation variants are alternative
// SelectionPolicy implementations injected at construction — and RuntimeGroup
// (runtime_group.h) shards independent ledgers/windows per tenant behind one
// shared stage factory.

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
#include "src/atropos/ledger.h"
#include "src/atropos/pipeline.h"
#include "src/atropos/stats.h"
#include "src/atropos/trace_event.h"
#include "src/atropos/window.h"
#include "src/common/clock.h"
#include "src/obs/flight_recorder.h"

namespace atropos {

class AtroposRuntime final : public OverloadController {
 public:
  // Builds the paper's pipeline (Breakwater detection, gain estimation, the
  // selection policy named by config.policy).
  AtroposRuntime(Clock* clock, AtroposConfig config);
  // Injects explicit decision stages; `pipeline.complete()` must hold.
  AtroposRuntime(Clock* clock, AtroposConfig config, DecisionPipeline pipeline);

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
  // cancellation of the selected culprit.
  void Tick() override;

  // ---- Fairness / re-execution (§4) ---------------------------------------
  bool ReexecutionRecommended() const override {
    return dispatcher_.ReexecutionRecommended();
  }

  // ---- Introspection -------------------------------------------------------
  const AtroposStats& stats() const { return stats_; }
  const AtroposConfig& config() const { return config_; }
  // The Breakwater detection stage's detector. Only valid when the detection
  // stage is a BreakwaterDetectionStage (true for every in-repo pipeline).
  const OverloadDetector& detector() const { return breakwater_->detector(); }
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

  // Layer access for tests and the multi-tenant group.
  const TaskLedger& ledger() const { return ledger_; }
  const DecisionPipeline& pipeline() const { return pipeline_; }

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
  DecisionPipeline pipeline_;
  // Non-owning view into pipeline_.detection when it is the Breakwater stage;
  // backs detector().
  const BreakwaterDetectionStage* breakwater_ = nullptr;
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
