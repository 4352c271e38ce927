// Common application framework for the four simulated servers.
//
// An App serves typed requests as detached simulation coroutines, exposes the
// application's safe cancellation initiator (§2.4/§3.6: set a flag that the
// handler observes at checkpoints and that aborts its blocking waits), and
// implements the ControlSurface actions it supports (cancel, throttle, worker
// reservation, client shares).

#ifndef SRC_APPS_APP_H_
#define SRC_APPS_APP_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/atropos/controller.h"
#include "src/atropos/dense_index.h"
#include "src/atropos/instrument.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/sim/cancel.h"
#include "src/sim/coro.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"

namespace atropos {

// Keys at or above this base identify application background tasks (backup
// thread, purge, WAL flusher, vacuum, ...); frontend request keys stay below.
inline constexpr uint64_t kBackgroundKeyBase = 1ull << 40;

struct AppRequest {
  uint64_t key = 0;          // unique task key (also the Atropos task key)
  int type = 0;              // app-specific request type enum
  int client_class = 0;      // tenant / client grouping (PARTIES)
  uint64_t arg = 0;          // type-specific parameter (table id, span, ...)
  bool non_cancellable = false;  // re-executed request (§4 fairness)
};

enum class OutcomeKind {
  kCompleted = 0,
  kCancelled = 1,  // culprit cancellation (may be re-executed)
  kDropped = 2,    // victim drop (returned to the client as an error)
  kRejected = 3,   // admission rejection (backlog full)
};

using CompletionFn = std::function<void(const AppRequest&, OutcomeKind)>;

class App : public ControlSurface {
 public:
  ~App() override;

  virtual std::string_view name() const = 0;

  // Starts serving `req` as a detached coroutine; `done` fires exactly once.
  virtual void Start(const AppRequest& req, CompletionFn done) = 0;

  // The application's cancellation initiator (sql_kill / KILL QUERY analog):
  // marks the task and aborts its cancellable waits. Tasks registered
  // non-cancellable (re-executed work, unsafe background tasks) ignore it.
  virtual void Cancel(uint64_t key);

  // Human-readable name for an app-specific request type enum value, e.g.
  // "backup" for MiniDb's kDbBackup. Used by the trace exporters.
  virtual std::string_view RequestTypeName(int type) const { return "request"; }

  // Attach a metrics registry (non-owning). FinishTask then maintains
  // "<app>.requests.<type>" and "<app>.outcome.<kind>" counters.
  void SetMetrics(MetricsRegistry* metrics) {
    metrics_ = metrics;
    type_counters_.clear();
    outcome_counters_.fill(nullptr);
  }

  // Stops background tasks so the simulation drains.
  virtual void Shutdown() = 0;

  void CancelTask(uint64_t key, CancelReason reason) override;
  void ThrottleTask(uint64_t key, double factor) override;
  // PARTIES: resizes a client class's concurrency share.
  void SetClientShare(int client_class, double share) override;

 protected:
  // Book-keeping for an in-flight request or background task. Slots are
  // recycled through a free list; a slot's address is stable for the App's
  // lifetime, so the token pointer BeginTask hands out stays valid until the
  // task's FinishTask. A slot on the free list is poisoned for
  // AddressSanitizer, so a use of a finished task's token is reported.
  struct LiveTask {
    LiveTask(Executor& executor, bool cancellable) : token(executor), cancellable(cancellable) {}

    CancelToken token;
    CancelReason cancel_reason = CancelReason::kCulprit;
    bool cancellable;
    double throttle = 1.0;
  };

  explicit App(Executor& executor, OverloadController* controller)
      : executor_(executor), controller_(controller) {}

  // Creates the live entry + cancel token for `key`, replacing any entry
  // still live under it with a fresh one. Non-cancellable requests still get
  // a token, but Cancel() on them is a no-op (the app-level safety contract).
  CancelToken* BeginTask(uint64_t key, bool cancellable = true);

  // Maps the handler's final status to an OutcomeKind using the recorded
  // cancellation reason, returns the live slot, and invokes `done`.
  void FinishTask(const AppRequest& req, const CompletionFn& done, const Status& status);

  // Throttle-aware delay scaling (pBox penalties).
  TimeMicros Scaled(uint64_t key, TimeMicros t) const;

  CancelToken* TokenOf(uint64_t key);
  bool IsLive(uint64_t key) const { return live_.Find(key) != DenseKeyIndex::kNotFound; }
  size_t live_count() const { return live_.size(); }

  // Client-class admission gates (PARTIES shares). Gates start effectively
  // unbounded; SetClientShare resizes them against `parties_capacity` (the
  // app's nominal concurrency).
  void InitClientGates(int num_classes, int64_t parties_capacity);
  Task<Status> GateEnter(const AppRequest& req, CancelToken* token);
  void GateExit(const AppRequest& req);

  Executor& executor_;
  OverloadController* controller_;
  MetricsRegistry* metrics_ = nullptr;
  // Counter pointers are stable for the registry's lifetime, so FinishTask
  // resolves each name once and increments through the cache afterwards.
  std::vector<Counter*> type_counters_;  // indexed by request type
  std::array<Counter*, 4> outcome_counters_{};
  // key -> index into slots_ of the task's LiveTask.
  DenseKeyIndex live_;
  std::deque<LiveTask> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::unique_ptr<SimSemaphore>> class_gates_;
  int64_t gate_slots_ = 0;

 private:
  // The live entry of `key`, or nullptr.
  LiveTask* Live(uint64_t key);
  const LiveTask* Live(uint64_t key) const;
  // Takes a slot off the free list (or appends one) and arms it.
  uint32_t AcquireSlot(bool cancellable);
  void ReleaseSlot(uint32_t slot);
};

}  // namespace atropos

#endif  // SRC_APPS_APP_H_
