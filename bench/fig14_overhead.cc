// Figure 14 — overhead of Atropos.
//
// Part 1 (google-benchmark, real clock): per-call cost of the tracing APIs in
// sampled-timestamp mode (normal operation) and per-event mode (suspected
// overload), plus the per-window Tick decision cost. This is the real
// measured cost of the instrumentation a request passes through. The hook
// loops call OnEvent on the concrete AtroposRuntime, which folds each event
// to its ledger or window call; a named hook would add an indirect call.
// Part 1b (--json) adds the drainer's cost per event: ConcurrentFrontend::Tick
// over the `ingest` benchmark's request pattern; and the C API's cost per
// call into an installed ConcurrentFrontend.
//
// The paper's end-to-end overhead (normalized throughput and p99 with tracing
// on vs off) needs wall-clock runs of a live app; this bench measures only the
// per-call costs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/atropos/capi.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/atropos/runtime.h"
#include "src/common/json_writer.h"

namespace atropos {
namespace {

// ---------------------------------------------------------------------------
// Part 1: micro costs (real clock).

AtroposRuntime* MakeMicroRuntime(TimestampMode mode, Clock* clock) {
  AtroposConfig config;
  config.timestamp_mode = mode;
  config.baseline_p99 = Millis(100);  // keep the detector quiet
  auto* runtime = new AtroposRuntime(clock, config);
  return runtime;
}

void BM_OnGetSampled(benchmark::State& state) {
  SteadyClock clock;
  std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kSampled, &clock));
  ResourceId r = rt->RegisterResource("pool", ResourceClass::kMemory);
  rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
  for (auto _ : state) {
    rt->OnEvent(TraceEvent::Get(1, r, 1));
  }
}
BENCHMARK(BM_OnGetSampled);

void BM_OnGetPerEvent(benchmark::State& state) {
  SteadyClock clock;
  std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kPerEvent, &clock));
  ResourceId r = rt->RegisterResource("pool", ResourceClass::kMemory);
  rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
  for (auto _ : state) {
    rt->OnEvent(TraceEvent::Get(1, r, 1));
  }
}
BENCHMARK(BM_OnGetPerEvent);

void BM_WaitPairPerEvent(benchmark::State& state) {
  SteadyClock clock;
  std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kPerEvent, &clock));
  ResourceId r = rt->RegisterResource("lock", ResourceClass::kLock);
  rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
  for (auto _ : state) {
    rt->OnEvent(TraceEvent::WaitBegin(1, r));
    rt->OnEvent(TraceEvent::WaitEnd(1, r));
  }
}
BENCHMARK(BM_WaitPairPerEvent);

void BM_OnRequestEnd(benchmark::State& state) {
  SteadyClock clock;
  std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kSampled, &clock));
  rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
  for (auto _ : state) {
    rt->OnEvent(TraceEvent::RequestEnd(1, 1000, 0, 0));
  }
}
BENCHMARK(BM_OnRequestEnd);

void BM_TickWith100Tasks(benchmark::State& state) {
  SteadyClock clock;
  std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kSampled, &clock));
  ResourceId r = rt->RegisterResource("lock", ResourceClass::kLock);
  for (uint64_t k = 1; k <= 100; k++) {
    rt->OnEvent(TraceEvent::TaskRegistered(k, false, true));
    rt->OnEvent(TraceEvent::Get(k, r, 1));
  }
  for (auto _ : state) {
    rt->Tick();
  }
}
BENCHMARK(BM_TickWith100Tasks);

// 100 tasks parked in a queue (open waits, no holds) under a calibrated,
// Normal detector: the queue is flagged overloaded every window, but nothing
// suspects overload, so no victim is chosen. A manual clock advances one
// window per Tick so the open waits always span it.
AtroposRuntime* MakeWaitingRuntime(ManualClock* clock) {
  AtroposRuntime* rt = MakeMicroRuntime(TimestampMode::kSampled, clock);
  ResourceId q = rt->RegisterResource("queue", ResourceClass::kQueue);
  for (uint64_t k = 1; k <= 100; k++) {
    rt->OnEvent(TraceEvent::TaskRegistered(k, false, true));
    rt->OnEvent(TraceEvent::WaitBegin(k, q));
  }
  return rt;
}

void BM_TickWith100WaitingTasks(benchmark::State& state) {
  ManualClock clock;
  std::unique_ptr<AtroposRuntime> rt(MakeWaitingRuntime(&clock));
  for (auto _ : state) {
    clock.Advance(rt->config().window);
    rt->Tick();
  }
}
BENCHMARK(BM_TickWith100WaitingTasks);

// Hand-rolled steady-clock loops mirroring the google-benchmark cases above,
// so the machine-readable trajectory (BENCH_fig14.json) carries stable
// per-event nanosecond figures without parsing benchmark console output.
struct MicroCosts {
  double on_get_sampled_ns = 0;
  double on_get_per_event_ns = 0;
  double wait_pair_per_event_ns = 0;
  double on_request_end_ns = 0;
  double tick_100_tasks_us = 0;
  double tick_100_waiting_us = 0;
  double drain_apply_ns_per_event = 0;
  double capi_get_frontend_ns = 0;
};

double TimeLoopNs(uint64_t iters, const std::function<void()>& body) {
  // One untimed pass warms caches and the ledger's first-touch allocations.
  body();
  // Best-of-3: the minimum over repetitions is the least-scheduler-noise
  // estimate of the true cost — a single timed pass on a shared core can
  // read 2x high and trip the perf-trajectory gate spuriously.
  double best = 0;
  for (int rep = 0; rep < 3; rep++) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iters; i++) {
      body();
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(end - start).count() /
                      static_cast<double>(iters);
    if (rep == 0 || ns < best) {
      best = ns;
    }
  }
  return best;
}

// The drainer's cost per event on the `ingest` benchmark's traffic: three
// registered producers each keep 100 requests in flight and push the eleven
// events a LiveServer + LiveMiniKv point op emits (register, start and queue
// wait when admitted; the rest when served). They push request by request in
// turn, so the rings' stamps interleave as concurrent producers' do, and each
// Tick drains 100 requests per producer (3,300 events) through the merge, the
// ledger and window apply, and the control loop over 300 live tasks. Pushing
// is untimed; the figure is the timed Ticks' total over the events they
// drained.
double MeasureDrainApplyNsPerEvent() {
  constexpr int kProducers = 3;
  constexpr uint64_t kInFlight = 100;         // per producer
  constexpr uint64_t kRequestsPerTick = 100;  // per producer
  constexpr int kTimedTicks = 300;
  SteadyClock clock;
  AtroposConfig config;
  config.window = Millis(10);
  config.baseline_p99 = Millis(30);
  ConcurrentFrontend frontend(&clock, config);
  const ResourceId queue = frontend.RegisterResource("queue", ResourceClass::kQueue);
  const ResourceId lock = frontend.RegisterResource("lock", ResourceClass::kLock);
  std::vector<ConcurrentFrontend::Producer*> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.push_back(frontend.RegisterProducer());
  }
  auto key = [](int p, uint64_t request) {
    return (static_cast<uint64_t>(p) + 1) << 40 | request;
  };
  auto admit = [&](int p, uint64_t request) {
    ConcurrentFrontend::Producer* producer = producers[p];
    const uint64_t k = key(p, request);
    producer->Push(TraceEvent::TaskRegistered(k, false, true));
    producer->Push(TraceEvent::RequestStart(k, 0, 0));
    producer->Push(TraceEvent::WaitBegin(k, queue));
  };
  auto serve = [&](int p, uint64_t request) {
    ConcurrentFrontend::Producer* producer = producers[p];
    const uint64_t k = key(p, request);
    producer->Push(TraceEvent::WaitEnd(k, queue));
    producer->Push(TraceEvent::WaitBegin(k, lock));
    producer->Push(TraceEvent::WaitEnd(k, lock));
    producer->Push(TraceEvent::Get(k, lock, 1));
    producer->Push(TraceEvent::Progress(k, 1, 1));
    producer->Push(TraceEvent::Free(k, lock, 1));
    producer->Push(TraceEvent::RequestEnd(k, 100, 0, 0));
    producer->Push(TraceEvent::TaskFreed(k));
  };
  for (uint64_t request = 0; request < kInFlight; request++) {
    for (int p = 0; p < kProducers; p++) {
      admit(p, request);
    }
  }
  uint64_t next = kInFlight;
  double ns = 0;
  uint64_t events = 0;
  // The first Tick (prefill included) warms the books and is not timed.
  for (int tick = -1; tick < kTimedTicks; tick++) {
    for (uint64_t i = 0; i < kRequestsPerTick; i++, next++) {
      for (int p = 0; p < kProducers; p++) {
        serve(p, next - kInFlight);
        admit(p, next);
      }
    }
    const auto start = std::chrono::steady_clock::now();
    frontend.Tick();
    const auto end = std::chrono::steady_clock::now();
    if (tick >= 0) {
      ns += std::chrono::duration<double, std::nano>(end - start).count();
      events += frontend.intake_stats().drained_last_tick;
    }
  }
  return ns / static_cast<double>(events);
}

// The C API's producer path: getResource under a CancellableScope into an
// installed ConcurrentFrontend, i.e. the current-task read, the thread's
// binding check, the clock read and the ring push. Each timed batch fits in
// the ring, and an untimed Tick drains it before the next, so no push drops.
double MeasureCApiGetFrontendNs() {
  constexpr uint64_t kBatch = 4096;
  constexpr int kBatches = 250;
  SteadyClock clock;
  AtroposConfig config;
  config.baseline_p99 = Millis(100);  // keep the detector quiet
  ConcurrentFrontend frontend(&clock, config);
  InstallGlobalFrontend(&frontend);
  Cancellable* c = createCancel(1);
  double best = 0;
  {
    CancellableScope scope(c);
    // Best-of-3 after one untimed pass, as TimeLoopNs does.
    for (int rep = -1; rep < 3; rep++) {
      double ns = 0;
      for (int batch = 0; batch < kBatches; batch++) {
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < kBatch; i++) {
          getResource(1, CApiResourceType::LOCK);
        }
        const auto end = std::chrono::steady_clock::now();
        ns += std::chrono::duration<double, std::nano>(end - start).count();
        frontend.Tick();
      }
      ns /= static_cast<double>(kBatch * kBatches);
      if (rep == 0 || (rep > 0 && ns < best)) {
        best = ns;
      }
    }
  }
  freeCancel(c);
  frontend.Tick();
  if (frontend.intake_stats().dropped_total != 0) {
    std::fprintf(stderr, "capi_get_frontend_ns: %llu events dropped\n",
                 static_cast<unsigned long long>(frontend.intake_stats().dropped_total));
  }
  InstallGlobalFrontend(nullptr);
  return best;
}

MicroCosts MeasureMicroCosts() {
  constexpr uint64_t kHookIters = 2'000'000;
  constexpr uint64_t kTickIters = 2'000;
  MicroCosts costs;
  {
    SteadyClock clock;
    std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kSampled, &clock));
    ResourceId r = rt->RegisterResource("pool", ResourceClass::kMemory);
    rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
    costs.on_get_sampled_ns =
        TimeLoopNs(kHookIters, [&] { rt->OnEvent(TraceEvent::Get(1, r, 1)); });
  }
  {
    SteadyClock clock;
    std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kPerEvent, &clock));
    ResourceId r = rt->RegisterResource("pool", ResourceClass::kMemory);
    rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
    costs.on_get_per_event_ns =
        TimeLoopNs(kHookIters, [&] { rt->OnEvent(TraceEvent::Get(1, r, 1)); });
  }
  {
    SteadyClock clock;
    std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kPerEvent, &clock));
    ResourceId r = rt->RegisterResource("lock", ResourceClass::kLock);
    rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
    costs.wait_pair_per_event_ns = TimeLoopNs(kHookIters, [&] {
      rt->OnEvent(TraceEvent::WaitBegin(1, r));
      rt->OnEvent(TraceEvent::WaitEnd(1, r));
    });
  }
  {
    SteadyClock clock;
    std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kSampled, &clock));
    rt->OnEvent(TraceEvent::TaskRegistered(1, false, true));
    costs.on_request_end_ns = TimeLoopNs(
        kHookIters, [&] { rt->OnEvent(TraceEvent::RequestEnd(1, 1000, 0, 0)); });
  }
  {
    SteadyClock clock;
    std::unique_ptr<AtroposRuntime> rt(MakeMicroRuntime(TimestampMode::kSampled, &clock));
    ResourceId r = rt->RegisterResource("lock", ResourceClass::kLock);
    for (uint64_t k = 1; k <= 100; k++) {
      rt->OnEvent(TraceEvent::TaskRegistered(k, false, true));
      rt->OnEvent(TraceEvent::Get(k, r, 1));
    }
    costs.tick_100_tasks_us = TimeLoopNs(kTickIters, [&] { rt->Tick(); }) / 1000.0;
  }
  {
    ManualClock clock;
    std::unique_ptr<AtroposRuntime> rt(MakeWaitingRuntime(&clock));
    auto tick = [&] {
      clock.Advance(rt->config().window);
      rt->Tick();
    };
    costs.tick_100_waiting_us = TimeLoopNs(kTickIters, tick) / 1000.0;
  }
  costs.drain_apply_ns_per_event = MeasureDrainApplyNsPerEvent();
  costs.capi_get_frontend_ns = MeasureCApiGetFrontendNs();
  return costs;
}

}  // namespace
}  // namespace atropos

// Usage: fig14_overhead [--json[=path]] [google-benchmark flags]
//   --json      writes BENCH_fig14.json with the part-1 micro ns figures
int main(int argc, char** argv) {
  // Peel our flags before handing the rest to google-benchmark.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_fig14.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  std::printf("Figure 14: overhead of Atropos\n\n");
  std::printf("Part 1: tracing API micro-costs (real clock, google-benchmark)\n");
  int bench_argc = 2;
  char arg0[] = "fig14_overhead";
  char arg1[] = "--benchmark_min_time=0.05s";
  char* bench_argv[] = {arg0, arg1, nullptr};
  if (argc > 1) {
    benchmark::Initialize(&argc, argv);
    // A flag neither this bench nor google-benchmark knows is an error, not
    // a silent switch to google-benchmark's default min time.
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
  } else {
    benchmark::Initialize(&bench_argc, bench_argv);
  }
  benchmark::RunSpecifiedBenchmarks();

  if (!json_path.empty()) {
    std::printf("\nPart 1b: steady-clock micro costs for the perf trajectory\n");
    const atropos::MicroCosts costs = atropos::MeasureMicroCosts();
    std::printf(
        "  on_get sampled %.1f ns | on_get per-event %.1f ns | wait pair %.1f ns\n"
        "  on_request_end %.1f ns | tick(100 tasks) %.2f us | tick(100 waiting) %.2f us\n"
        "  drain + apply (ingest pattern, 3 producers) %.1f ns/event\n"
        "  capi getResource into a frontend %.1f ns\n",
        costs.on_get_sampled_ns, costs.on_get_per_event_ns, costs.wait_pair_per_event_ns,
        costs.on_request_end_ns, costs.tick_100_tasks_us, costs.tick_100_waiting_us,
        costs.drain_apply_ns_per_event, costs.capi_get_frontend_ns);
    atropos::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "fig14_overhead");
    json.Field("on_get_sampled_ns", costs.on_get_sampled_ns);
    json.Field("on_get_per_event_ns", costs.on_get_per_event_ns);
    json.Field("wait_pair_per_event_ns", costs.wait_pair_per_event_ns);
    json.Field("on_request_end_ns", costs.on_request_end_ns);
    json.Field("tick_100_tasks_us", costs.tick_100_tasks_us);
    json.Field("tick_100_waiting_us", costs.tick_100_waiting_us);
    json.Field("drain_apply_ns_per_event", costs.drain_apply_ns_per_event);
    json.Field("capi_get_frontend_ns", costs.capi_get_frontend_ns);
    // Headline per-event cost: the sampled-mode OnGet every request pays in
    // normal operation (the ROADMAP ~10ns/event target).
    json.Field("ns_per_event", costs.on_get_sampled_ns);
    json.EndObject();
    if (json.WriteFile(json_path)) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return 0;
}
