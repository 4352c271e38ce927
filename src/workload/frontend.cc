#include "src/workload/frontend.h"

#include <algorithm>
#include <utility>

namespace atropos {

Frontend::Frontend(Executor& executor, App& app, OverloadController& controller,
                   FrontendOptions options)
    : executor_(executor), app_(app), controller_(controller), options_(options) {}

RunMetrics Frontend::Run() {
  Rng root(options_.seed);
  for (const TrafficSpec& spec : traffic_) {
    if (spec.closed_loop_clients > 0) {
      for (int i = 0; i < spec.closed_loop_clients; i++) {
        ClosedLoopClient(spec, root.Fork());
      }
    } else {
      GenerateTraffic(spec, root.Fork());
    }
  }
  FireOneShots(std::move(oneshots_));
  TickLoop();

  // Phase 1: run through the experiment horizon.
  executor_.Run(options_.duration);
  // Phase 2: drain in-flight work (ticking continues so cancellations and
  // re-executions still happen), then stop background tasks.
  executor_.Run(options_.duration + options_.max_retry_wait + Seconds(2));
  stop_ticking_ = true;
  app_.Shutdown();
  executor_.Run();

  metrics_.measured_time = options_.duration - options_.warmup;
  return metrics_;
}

Coro Frontend::GenerateTraffic(TrafficSpec spec, Rng rng) {
  co_await BindExecutor{executor_};
  if (spec.qps <= 0.0) {
    co_return;
  }
  TimeMicros end = std::min(spec.end, options_.duration);
  double mean_gap = static_cast<double>(kMicrosPerSecond) / spec.qps;
  if (spec.start > 0) {
    co_await Delay{executor_, spec.start};
  }
  while (executor_.now() < end) {
    co_await Delay{executor_, static_cast<TimeMicros>(rng.NextExponential(mean_gap)) + 1};
    if (executor_.now() >= end) {
      break;
    }
    AppRequest req;
    req.key = next_key_++;
    req.type = spec.type;
    req.client_class = spec.client_class;
    req.arg = spec.arg_modulo > 0 ? rng.NextBounded(static_cast<uint64_t>(spec.arg_modulo))
                                  : spec.arg;
    Submit(req, executor_.now(), /*background=*/false, /*is_retry=*/false);
  }
}

// One virtual client: submit, wait for the response, think, repeat.
Coro Frontend::ClosedLoopClient(TrafficSpec spec, Rng rng) {
  co_await BindExecutor{executor_};
  TimeMicros end = std::min(spec.end, options_.duration);
  if (spec.start > 0) {
    co_await Delay{executor_, spec.start};
  }
  while (executor_.now() < end) {
    AppRequest req;
    req.key = next_key_++;
    req.type = spec.type;
    req.client_class = spec.client_class;
    req.arg = spec.arg_modulo > 0 ? rng.NextBounded(static_cast<uint64_t>(spec.arg_modulo))
                                  : spec.arg;
    SimEvent done(executor_);
    Submit(req, executor_.now(), /*background=*/false, /*is_retry=*/false, &done);
    co_await done.Wait();
    if (spec.think_time > 0) {
      co_await Delay{executor_,
                     static_cast<TimeMicros>(rng.NextExponential(
                         static_cast<double>(spec.think_time))) +
                         1};
    }
  }
}

// One process feeds all one-shots, so the heap holds only the next one
// instead of the whole schedule. The seqs are reserved at spawn, in Run()'s
// spawn order, and shot i of the (at, insertion)-sorted list fires at key
// (start + at, base + i): the order it would have had if every shot had been
// pushed up front.
Coro Frontend::FireOneShots(std::vector<OneShotSpec> shots) {
  co_await BindExecutor{executor_};
  auto by_time = [](const OneShotSpec& a, const OneShotSpec& b) { return a.at < b.at; };
  // Fuzz plans arrive in time order already; sort only a list that does not.
  if (!std::is_sorted(shots.begin(), shots.end(), by_time)) {
    std::stable_sort(shots.begin(), shots.end(), by_time);
  }
  const TimeMicros start = executor_.now();
  const uint64_t base = executor_.ReserveSeqs(shots.size());
  for (size_t i = 0; i < shots.size(); i++) {
    const OneShotSpec& spec = shots[i];
    co_await ResumeAtReserved{executor_, start + spec.at, base + i};
    AppRequest req;
    req.key = next_key_++;
    req.type = spec.type;
    req.client_class = spec.client_class;
    req.arg = spec.arg;
    req.non_cancellable = spec.non_cancellable;
    Submit(req, executor_.now(), spec.background, /*is_retry=*/false);
  }
}

Coro Frontend::TickLoop() {
  co_await BindExecutor{executor_};
  while (!stop_ticking_) {
    co_await Delay{executor_, options_.tick_window};
    if (stop_ticking_) {
      break;
    }
    controller_.Tick();
    if (obs_ != nullptr && executor_.now() <= options_.duration) {
      obs_->series.Sample(executor_.now(),
                          {static_cast<double>(metrics_.completed),
                           static_cast<double>(metrics_.cancelled),
                           static_cast<double>(metrics_.dropped),
                           static_cast<double>(metrics_.latency.P99()) / 1000.0});
    }
  }
}

void Frontend::RecordClientEvent(ObsEventKind kind, const AppRequest& req, double value) {
  if (obs_ == nullptr || !obs_->recorder.enabled()) {
    return;
  }
  FlightEvent ev;
  ev.time = executor_.now();
  ev.kind = kind;
  ev.key = req.key;
  ev.value = value;
  ev.label = std::string(app_.RequestTypeName(req.type));
  obs_->recorder.Record(std::move(ev));
}

void Frontend::Submit(AppRequest req, TimeMicros first_arrival, bool background, bool is_retry,
                      SimEvent* completion) {
  TimeMicros now = executor_.now();
  if (!background && !is_retry && InMeasuredWindow(now)) {
    metrics_.arrivals++;
  }
  // Admission-control baselines may shed the request up front.
  if (!background && !controller_.AdmitRequest(req.key, req.type, req.client_class)) {
    if (InMeasuredWindow(now)) {
      metrics_.dropped++;
    }
    if (completion != nullptr) {
      completion->Set();
    }
    return;
  }
  if (req.key >= key_types_.size()) {
    key_types_.resize(req.key + 1, -1);
  }
  key_types_[req.key] = req.type;
  controller_.OnTaskRegistered(req.key, background, !req.non_cancellable);
  if (!background) {
    controller_.OnRequestStart(req.key, req.type, req.client_class);
  }
  app_.Start(req, [this, first_arrival, background, completion](const AppRequest& r,
                                                                OutcomeKind outcome) {
    OnDone(r, outcome, first_arrival, background);
    if (completion != nullptr) {
      completion->Set();
    }
  });
}

void Frontend::OnDone(const AppRequest& req, OutcomeKind outcome, TimeMicros first_arrival,
                      bool background) {
  TimeMicros now = executor_.now();
  TimeMicros latency = now > first_arrival ? now - first_arrival : 0;
  if (!background) {
    controller_.OnRequestEnd(req.key, latency, req.type, req.client_class);
  }
  controller_.OnTaskFreed(req.key);

  bool measured = InMeasuredWindow(first_arrival);
  switch (outcome) {
    case OutcomeKind::kCompleted:
      // Throughput/latency track the SLO-bearing workload (class 0), counting
      // completions that land within the run horizon: requests that only
      // finish during the post-run drain did not contribute to the
      // throughput the clients observed, and a long analytics request
      // completing is not a latency sample of the primary workload.
      if (!background && measured && now < options_.duration && req.client_class == 0) {
        metrics_.completed++;
        metrics_.latency.Record(latency);
      }
      break;
    case OutcomeKind::kCancelled: {
      // The request observed its cancellation and unwound; the flip side of
      // the runtime's cancel_issued event, with the request type named.
      RecordClientEvent(ObsEventKind::kCancelCompleted, req, ToSeconds(latency));
      if (background) {
        // §4's max-wait re-execution guarantee is not modelled: background
        // work takes the same calm-gated retry path (DESIGN.md §1).
        metrics_.background_cancelled++;
      }
      if (!background && measured) {
        metrics_.cancelled++;
      }
      if (options_.retry_cancelled) {
        retry_queue_.push_back(PendingRetry{req, first_arrival, background, now});
        if (!retry_worker_active_) {
          retry_worker_active_ = true;
          RetryWorker();
        }
      } else if (!background && measured) {
        metrics_.dropped++;
      }
      break;
    }
    case OutcomeKind::kDropped:
      RecordClientEvent(ObsEventKind::kTaskDropped, req, ToSeconds(latency));
      if (!background && measured) {
        metrics_.dropped++;
      }
      break;
    case OutcomeKind::kRejected:
      if (!background && measured) {
        metrics_.rejected++;
      }
      break;
  }
}

// Retries are serialized: re-executed tasks are non-cancellable (§4), so
// launching several at once could recreate the exact overload that was just
// resolved with no cancellable culprit left. One at a time, each gated on
// sustained availability, keeps re-execution safe.
Coro Frontend::RetryWorker() {
  co_await BindExecutor{executor_};
  while (!retry_queue_.empty()) {
    PendingRetry pending = retry_queue_.front();
    retry_queue_.pop_front();

    bool dropped = false;
    // Wait for sustained resource availability (§4).
    while (!controller_.ReexecutionRecommended()) {
      co_await Delay{executor_, options_.tick_window};
      if (executor_.now() - pending.enqueued > options_.max_retry_wait) {
        dropped = true;
        break;
      }
    }
    if (!dropped && executor_.now() - pending.enqueued > options_.max_retry_wait) {
      dropped = true;
    }
    if (dropped) {
      // The request can no longer meet its SLO: drop it (§4).
      RecordClientEvent(ObsEventKind::kTaskDropped, pending.req,
                        ToSeconds(executor_.now() - pending.enqueued));
      if (!pending.background && InMeasuredWindow(pending.first_arrival)) {
        metrics_.dropped++;
      }
      continue;
    }
    // Re-execute under the same key: the runtime remembers cancelled keys and
    // marks the re-registration non-cancellable (§4: cancelled at most once).
    AppRequest retry = pending.req;
    retry.non_cancellable = true;
    metrics_.retried++;
    RecordClientEvent(ObsEventKind::kTaskRetried, retry,
                      ToSeconds(executor_.now() - pending.enqueued));
    SimEvent done(executor_);
    Submit(retry, pending.first_arrival, pending.background, /*is_retry=*/true, &done);
    co_await done.Wait();
  }
  retry_worker_active_ = false;
}

}  // namespace atropos
