// Paper-faithful integration facade (Fig 6 of the paper).
//
// The core library API (AtroposRuntime) is explicit about task identity and
// resource instances. Real applications, however, integrate through the thin
// C-style surface the paper presents: createCancel / freeCancel /
// setCancelAction and getResource / freeResource / slowByResource with an
// implicit "current task" (in the paper: the calling thread; here: a
// scope-managed current cancellable). This facade provides exactly that
// surface on top of one process-global ConcurrentFrontend.
//
// Hot path: a tracing call reads the installed frontend and the calling
// thread's current task (a plain thread-local slot), builds the event and
// calls the frontend's OnEvent, which is statically dispatched and inlined:
// one thread-binding check, one clock read and one ring push. The events
// reach the runtime when the frontend's drainer calls Tick().

#ifndef SRC_ATROPOS_CAPI_H_
#define SRC_ATROPOS_CAPI_H_

#include <cstdint>

#include "src/atropos/types.h"

namespace atropos {

class ConcurrentFrontend;

// Fig 6b: the unified resource-type enum. Each type maps to one implicitly
// registered default resource instance in the installed frontend's runtime.
enum class CApiResourceType { LOCK = 0, MEMORY = 1, QUEUE = 2 };

// Opaque handle for a registered cancellable task (Fig 6a).
struct Cancellable {
  uint64_t key;
};

// Installs the frontend the facade forwards to. Must be called before any
// other facade function; passing nullptr uninstalls (tracing calls become
// no-ops and createCancel returns nullptr). Install and uninstall while no
// other thread calls the facade.
//
// Tracing calls feed the frontend's per-thread SPSC rings, so every facade
// function below is safe to call from any thread (the paper keys the current
// task off the calling thread and so do we: the current-cancellable slot,
// scope chain, and retired-handle list are all thread-local). Setup-type
// calls (setCancelAction) route to the wrapped runtime and stay
// single-threaded-before-producers-start. A single-threaded caller, such as
// a simulation, drains what it traced by calling the frontend's Tick().
void InstallGlobalFrontend(ConcurrentFrontend* frontend);

// The implicitly registered default resource instance behind a facade type
// (kInvalidResourceId when nothing is installed). Lets embedding code — the
// live server's worker pool, say — attribute waits against the same resource
// instance the capi tracing stream uses.
ResourceId CApiDefaultResource(CApiResourceType type);

// ---- Fig 6a: task scope & cancellation action -----------------------------
Cancellable* createCancel(uint64_t key);
void freeCancel(Cancellable* c);
void setCancelAction(void (*func)(uint64_t key));

// Sets the calling thread's task that subsequent tracing calls are attributed
// to (the paper uses the calling thread identity; simulated tasks set this
// explicitly). Returns the previous current task so scopes can nest.
Cancellable* SetCurrentCancellable(Cancellable* c);

// Scope-tracked variants used by CancellableScope. The facade mirrors the
// scope chain so freeCancel can tell when a handle is still referenced by a
// live scope (or is the current task): such a handle is retired lazily
// instead of deleted, so a nested scope's exit never restores a dangling
// pointer, and tracing against the freed task flows to the runtime — which
// counts it as an ignored event — rather than silently vanishing.
Cancellable* EnterCancellableScope(Cancellable* c);
void ExitCancellableScope(Cancellable* previous);

// RAII scope for the current task.
class CancellableScope {
 public:
  explicit CancellableScope(Cancellable* c) : previous_(EnterCancellableScope(c)) {}
  ~CancellableScope() { ExitCancellableScope(previous_); }
  CancellableScope(const CancellableScope&) = delete;
  CancellableScope& operator=(const CancellableScope&) = delete;

 private:
  Cancellable* previous_;
};

// ---- Fig 6b: resource tracing ----------------------------------------------
// `value` carries the operation magnitude: units acquired/released for get /
// free, and the stall duration in microseconds for slowByResource.
void getResource(long value, CApiResourceType rsc_type);
void freeResource(long value, CApiResourceType rsc_type);
void slowByResource(long value, CApiResourceType rsc_type);

// Bracketing extension to the paper's API: a stall reported only after it
// completes is invisible while a task is blocked behind a long holder, so
// long convoys would go undetected until they resolve. Bracketing the wait
// makes in-progress stalls count toward contention.
void slowByResourceBegin(CApiResourceType rsc_type);
void slowByResourceEnd(CApiResourceType rsc_type);

// Progress reporting for applications with quantifiable progress (§3.4).
void reportProgress(uint64_t done, uint64_t total);

}  // namespace atropos

#endif  // SRC_ATROPOS_CAPI_H_
