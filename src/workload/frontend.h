// Experiment frontend: open-loop traffic generation, request lifecycle
// bookkeeping, and the client-side half of Atropos' fairness story (§4):
// culprit-cancelled requests are re-executed once resource availability is
// sustained, marked non-cancellable, and dropped if they outwait their SLO.

#ifndef SRC_WORKLOAD_FRONTEND_H_
#define SRC_WORKLOAD_FRONTEND_H_

#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "src/apps/app.h"
#include "src/atropos/controller.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/obs/obs.h"
#include "src/sim/coro.h"
#include "src/sim/sync.h"

namespace atropos {

// One arrival stream. Open-loop (Poisson at `qps`) by default; setting
// `closed_loop_clients` > 0 instead models that many virtual clients issuing
// back-to-back requests with `think_time` between them (the Sysbench model).
struct TrafficSpec {
  int type = 0;
  double qps = 0.0;
  uint64_t arg = 0;         // fixed request argument
  int arg_modulo = 0;       // if >0, arg = uniform in [0, arg_modulo)
  int client_class = 0;
  TimeMicros start = 0;
  TimeMicros end = std::numeric_limits<TimeMicros>::max();  // capped at run duration
  int closed_loop_clients = 0;
  TimeMicros think_time = 0;
};

// A single injected request (scan at t=5s, backup at t=20s, ...).
struct OneShotSpec {
  int type = 0;
  TimeMicros at = 0;
  uint64_t arg = 0;
  int client_class = 1;  // culprits default to the secondary class
  bool background = false;  // excluded from client-visible metrics
  bool non_cancellable = false;  // e.g. maintenance marked unsafe to kill
};

struct FrontendOptions {
  TimeMicros duration = Seconds(12);   // arrivals stop here
  TimeMicros warmup = Seconds(2);      // measurement starts here
  TimeMicros tick_window = Millis(100);
  bool retry_cancelled = true;
  TimeMicros max_retry_wait = Seconds(2.5);  // then the request is dropped (§4)
  uint64_t seed = 1;
};

struct RunMetrics {
  uint64_t arrivals = 0;      // measured-window arrivals
  uint64_t completed = 0;     // measured-window completions
  uint64_t cancelled = 0;     // culprit cancellations observed
  uint64_t retried = 0;       // re-executions issued
  uint64_t dropped = 0;       // victim drops + retry-deadline drops
  uint64_t rejected = 0;      // admission rejections
  uint64_t background_cancelled = 0;
  LatencyHistogram latency;   // completions only
  TimeMicros measured_time = 0;

  double ThroughputQps() const {
    return measured_time == 0
               ? 0.0
               : static_cast<double>(completed) / ToSeconds(measured_time);
  }
  double DropRate() const {
    return arrivals == 0
               ? 0.0
               : static_cast<double>(dropped + rejected) / static_cast<double>(arrivals);
  }
  TimeMicros P99() const { return latency.P99(); }
  TimeMicros P50() const { return latency.P50(); }
};

class Frontend {
 public:
  Frontend(Executor& executor, App& app, OverloadController& controller,
           FrontendOptions options);

  void AddTraffic(TrafficSpec spec) { traffic_.push_back(spec); }
  void AddOneShot(OneShotSpec spec) { oneshots_.push_back(spec); }

  // Request type of a submitted key (diagnostics; -1 if unknown).
  int TypeOfKey(uint64_t key) const {
    return key < key_types_.size() ? key_types_[key] : -1;
  }

  // Attach an observability bundle (non-owning): the app starts maintaining
  // per-request metrics, client-side cancellation aftermath (completion of a
  // cancel, retry, drop) lands in the flight recorder, and the tick loop
  // samples the metric series.
  void SetObservability(Observability* obs) {
    obs_ = obs;
    app_.SetMetrics(obs != nullptr ? &obs->metrics : nullptr);
  }

  // Runs the whole experiment to completion (drains the simulation) and
  // returns the measured-window metrics. Single-shot: the one-shots are
  // handed to the run, and the app is shut down at its end.
  RunMetrics Run();

 private:
  struct PendingRetry {
    AppRequest req;
    TimeMicros first_arrival = 0;
    bool background = false;
    TimeMicros enqueued = 0;
  };

  Coro GenerateTraffic(TrafficSpec spec, Rng rng);
  Coro ClosedLoopClient(TrafficSpec spec, Rng rng);
  // Fires every one-shot from one process, in (at, insertion) order.
  Coro FireOneShots(std::vector<OneShotSpec> shots);
  Coro TickLoop();
  // Conservative re-execution scheduler (§4): retries run one at a time,
  // each gated on sustained resource availability, and are dropped once they
  // outwait max_retry_wait.
  Coro RetryWorker();

  void Submit(AppRequest req, TimeMicros first_arrival, bool background, bool is_retry,
              SimEvent* completion = nullptr);
  void OnDone(const AppRequest& req, OutcomeKind outcome, TimeMicros first_arrival,
              bool background);

  bool InMeasuredWindow(TimeMicros t) const {
    return t >= options_.warmup && t < options_.duration;
  }

  // Records one client-side event (cancel completed, retry, drop) if a
  // recorder is attached and enabled.
  void RecordClientEvent(ObsEventKind kind, const AppRequest& req, double value);

  Executor& executor_;
  App& app_;
  OverloadController& controller_;
  FrontendOptions options_;
  Observability* obs_ = nullptr;

  std::vector<TrafficSpec> traffic_;
  std::vector<OneShotSpec> oneshots_;
  uint64_t next_key_ = 1;
  std::vector<int> key_types_;  // indexed by key (keys are dense from 1); -1 = unknown
  bool stop_ticking_ = false;
  std::deque<PendingRetry> retry_queue_;
  bool retry_worker_active_ = false;
  RunMetrics metrics_;
};

}  // namespace atropos

#endif  // SRC_WORKLOAD_FRONTEND_H_
