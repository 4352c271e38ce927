// Integration surface between applications and overload controllers.
//
// Applications emit one instrumentation stream (task lifecycle, resource
// tracing, request completions); every controller — Atropos itself and the
// reimplemented baselines (Protego, pBox, DARC, PARTIES) — consumes that same
// stream, which keeps the comparison fair (§5.1 "we carefully integrate each
// of these frameworks into our test applications").
//
// The stream has one entry point: OnEvent(const TraceEvent&), meaning "this
// event happens now". The named hooks (OnTaskRegistered … OnProgress, the
// paper's Fig 6 calls) are non-virtual spellings that build the event with
// its TraceEvent:: factory and pass it to OnEvent. The caller's `ev.time` is
// ignored: a controller that needs the event's time reads its own clock when
// OnEvent runs (AtroposRuntime, the baselines), or stamps and queues it
// (ConcurrentFrontend). Derived classes override OnEvent only; redeclaring
// a named hook would hide the base spelling.
//
// Controllers act back on the application through a ControlSurface the
// application implements: cancelling a task always goes through the
// application's own safe cancellation initiator (§3.6).

#ifndef SRC_ATROPOS_CONTROLLER_H_
#define SRC_ATROPOS_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/atropos/trace_event.h"
#include "src/atropos/types.h"
#include "src/common/clock.h"

namespace atropos {

// Why a controller is terminating a task; determines how the frontend
// accounts for it (culprit cancellations may be re-executed; victim drops are
// returned to the client as errors).
enum class CancelReason {
  kCulprit = 0,     // Atropos-style: this task causes the overload
  kVictimDrop = 1,  // Protego-style: this request is dropped to shed load
};

// Actions a controller can take on the application. The application
// implements what it supports; defaults are no-ops.
class ControlSurface {
 public:
  virtual ~ControlSurface() = default;

  // Invokes the application's cancellation initiator for the task `key`.
  virtual void CancelTask(uint64_t key, CancelReason reason) = 0;

  // pBox-style penalty: slow the task's resource consumption by `factor`
  // (1.0 = unthrottled).
  virtual void ThrottleTask(uint64_t key, double factor) {}

  // DARC-style: reserve `workers` of the app's worker pool for requests of
  // `request_type`.
  virtual void SetTypeReservation(int request_type, int workers) {}

  // PARTIES-style: set the resource share of a client class.
  virtual void SetClientShare(int client_class, double share) {}
};

// Event stream + periodic tick. Every virtual defaults to a no-op or a
// permissive answer so controllers implement only what they use.
class OverloadController {
 public:
  virtual ~OverloadController() = default;

  virtual std::string_view name() const = 0;

  // Declares an application resource before tracing against it. The base
  // implementation hands out ids and remembers the class so that simpler
  // controllers (the baselines) can classify events; AtroposRuntime overrides
  // with its full resource registry.
  virtual ResourceId RegisterResource(std::string name, ResourceClass cls) {
    ResourceId id = next_generic_resource_id_++;
    resource_classes_[id] = cls;
    return id;
  }

  // The instrumentation stream's one entry point: `ev` happens now.
  virtual void OnEvent(const TraceEvent& ev) {}

  // Task lifecycle (paper Fig 6a: createCancel / freeCancel). Only tasks
  // registered cancellable are ever considered by cancellation policies
  // (§3.5: tasks not marked as such are excluded from the algorithm).
  void OnTaskRegistered(uint64_t key, bool background, bool cancellable = true) {
    OnEvent(TraceEvent::TaskRegistered(key, background, cancellable));
  }
  void OnTaskFreed(uint64_t key) { OnEvent(TraceEvent::TaskFreed(key)); }

  // Resource tracing (paper Fig 6b: getResource / freeResource /
  // slowByResource). Waits are bracketed so in-progress stalls are visible.
  void OnGet(uint64_t key, ResourceId resource, uint64_t amount) {
    OnEvent(TraceEvent::Get(key, resource, amount));
  }
  void OnFree(uint64_t key, ResourceId resource, uint64_t amount) {
    OnEvent(TraceEvent::Free(key, resource, amount));
  }
  void OnWaitBegin(uint64_t key, ResourceId resource) {
    OnEvent(TraceEvent::WaitBegin(key, resource));
  }
  void OnWaitEnd(uint64_t key, ResourceId resource) {
    OnEvent(TraceEvent::WaitEnd(key, resource));
  }

  // Request lifecycle, for end-to-end detection. `request_type` is an
  // app-defined class (e.g. point-select vs dump), `client_class` a tenant id.
  void OnRequestStart(uint64_t key, int request_type, int client_class) {
    OnEvent(TraceEvent::RequestStart(key, request_type, client_class));
  }
  void OnRequestEnd(uint64_t key, TimeMicros latency, int request_type, int client_class) {
    OnEvent(TraceEvent::RequestEnd(key, latency, request_type, client_class));
  }

  // Completed wait+use report with both durations known after the fact
  // (CPU/IO adapters): one kUsage event carrying `waited` in `a` and `used`
  // in `b`.
  void OnUsage(uint64_t key, ResourceId resource, TimeMicros waited, TimeMicros used) {
    OnEvent(TraceEvent::Usage(key, resource, waited, used));
  }

  // GetNext progress (§3.4).
  void OnProgress(uint64_t key, uint64_t done, uint64_t total) {
    OnEvent(TraceEvent::Progress(key, done, total));
  }

  // Admission decision for a new request (admission-control baselines).
  // Returning false sheds the request before it enters the server.
  virtual bool AdmitRequest(uint64_t key, int request_type, int client_class) { return true; }

  // Periodic control-loop entry point.
  virtual void Tick() {}

  // §4 re-execution gate: whether cancelled work may be retried now. The
  // default is permissive; Atropos requires sustained resource availability.
  virtual bool ReexecutionRecommended() const { return true; }

 protected:
  const std::unordered_map<ResourceId, ResourceClass>& resource_classes() const {
    return resource_classes_;
  }

 private:
  ResourceId next_generic_resource_id_ = 1;
  std::unordered_map<ResourceId, ResourceClass> resource_classes_;
};

// Controller that does nothing — the "Overload" (uncontrolled) baseline.
class NullController final : public OverloadController {
 public:
  std::string_view name() const override { return "none"; }
};

}  // namespace atropos

#endif  // SRC_ATROPOS_CONTROLLER_H_
