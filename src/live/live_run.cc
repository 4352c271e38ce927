#include "src/live/live_run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/atropos/capi.h"
#include "src/live/live_clock.h"
#include "src/live/loadgen.h"
#include "src/obs/flight_recorder.h"

namespace atropos {

LiveRunResult RunLiveScenario(const LiveScenario& scenario, const LiveRunOptions& options) {
  RunClock clock;

  AtroposConfig config = scenario.config;
  config.cancellation_enabled = options.cancellation_enabled;
  ConcurrentFrontend frontend(&clock, config);

  FlightRecorder recorder;
  frontend.runtime().SetRecorder(&recorder);

  // Install before constructing the server: the server resolves the capi
  // QUEUE default resource, which installation registers.
  InstallGlobalFrontend(&frontend);

  std::unique_ptr<LiveApp> app;
  if (scenario.web) {
    app = std::make_unique<LiveMiniWeb>(scenario.web_options);
  } else {
    app = std::make_unique<LiveMiniKv>(scenario.kv_options);
  }

  LiveServerOptions sopt;
  sopt.workers = scenario.workers;
  sopt.queue_capacity = scenario.queue_capacity;
  sopt.measure_start = scenario.warmup;
  sopt.abortable_sync = options.abortable_sync;
  LiveServer server(&frontend, &clock, app.get(), sopt);

  // The cancellation initiator the drainer invokes: DeliverCancel is a
  // bounded scan of atomic slots — board first (aborting a parked wait in
  // place), then the queue (cancelling a still-queued task in its slot).
  // Cancel-action-safety: no blocking, no allocation on any path.
  LiveServer* server_ptr = &server;
  frontend.runtime().SetCancelAction([server_ptr](uint64_t key) { server_ptr->DeliverCancel(key); });

  LiveApp* app_raw = app.get();
  frontend.runtime().SetCancelObserver([&recorder, app_raw](uint64_t key, double /*score*/) {
    // The type rides in the key (MakeLiveKey), so naming the victim needs no
    // cross-thread lookup.
    recorder.AnnotateLast(ObsEventKind::kCancelIssued,
                          std::string(app_raw->RequestTypeName(TypeOfLiveKey(key))));
  });

  server.Start();

  LoadGen gen(&server, &clock, scenario.seed);
  for (const OpenLoopSpec& spec : scenario.open_streams) {
    gen.AddOpenLoop(spec);
  }
  for (const ClosedLoopSpec& spec : scenario.closed_streams) {
    gen.AddClosedLoop(spec);
  }
  for (const BurstSpec& spec : scenario.bursts) {
    gen.AddBurst(spec);
  }

  std::atomic<bool> stop_drainer{false};
  // Ticks on a fixed schedule, one per window, so a window lasts
  // `config.window` however long the Tick itself took. A drainer that falls
  // behind skips the missed ticks instead of running them back to back.
  std::thread drainer([&frontend, &stop_drainer, &config] {
    const auto period = std::chrono::microseconds(config.window);
    auto next = std::chrono::steady_clock::now();
    while (!stop_drainer.load(std::memory_order_acquire)) {
      frontend.Tick();
      next = std::max(next + period, std::chrono::steady_clock::now());
      std::this_thread::sleep_until(next);
    }
  });

  gen.Start(scenario.duration);
  while (clock.NowMicros() < scenario.duration) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Shutdown order per the header: Stop releases parked waiters before the
  // generator joins; drainer-ship then transfers to this thread over join,
  // and the final Tick drains the retired producers' rings.
  server.Stop();
  gen.Join();
  stop_drainer.store(true, std::memory_order_release);
  drainer.join();
  frontend.Tick();

  LiveRunResult result;
  result.stats = frontend.runtime().stats();
  result.intake = frontend.intake_stats();
  result.events = recorder.Snapshot();
  result.digest = NormalizeDecisions(result.events, scenario.duration);
  result.by_type = server.stats_by_type();
  result.arrivals = gen.arrivals();
  result.shed = server.shed();
  result.cancels_delivered = server.board().delivered();
  result.cancels_missed = server.board().missed();
  result.lock_waits_aborted = app->aborted_lock_waits();
  result.queued_cancelled = server.queued_cancelled();
  result.cancel_to_release_count = server.cancel_to_release().count();
  result.cancel_to_release_p50 = server.cancel_to_release().P50();
  result.cancel_to_release_p99 = server.cancel_to_release().P99();

  const int victim = app->victim_type();
  const int culprit = app->culprit_type();
  auto vit = result.by_type.find(victim);
  if (vit != result.by_type.end()) {
    result.victim_completed = vit->second.completed;
    result.victim_p50 = vit->second.latency.P50();
    result.victim_p99 = vit->second.latency.P99();
  }
  auto cit = result.by_type.find(culprit);
  if (cit != result.by_type.end()) {
    result.culprit_completed = cit->second.completed;
    result.culprit_cancelled = cit->second.cancelled;
  }
  const TimeMicros measured = scenario.duration - scenario.warmup;
  result.goodput_qps =
      measured > 0 ? static_cast<double>(result.victim_completed) / ToSeconds(measured) : 0.0;

  InstallGlobalFrontend(nullptr);
  return result;
}

}  // namespace atropos
