#include "src/atropos/concurrent_frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace atropos {
namespace {

AtroposConfig TestConfig() {
  AtroposConfig cfg;
  cfg.window = Millis(100);
  cfg.baseline_p99 = 1000;  // 1ms baseline, SLO = 1.2ms
  cfg.slo_latency_increase = 0.20;
  cfg.contention_threshold = 0.10;
  cfg.min_cancel_interval = Millis(200);
  // Sampled mode on purpose: the determinism proof must cover the ledger's
  // §3.2 quantization of the raw stamps, not just per-event stamps.
  cfg.timestamp_mode = TimestampMode::kSampled;
  return cfg;
}

// One scripted instrumentation call: which producer thread emits it, when,
// and the flattened call itself.
struct ScriptOp {
  int producer = 0;
  TraceEvent ev;  // ev.time is the scripted emission time
};

ScriptOp Op(int producer, TimeMicros t, TraceEventKind kind, uint64_t key,
            ResourceId resource = kInvalidResourceId, uint64_t a = 0, uint64_t b = 0) {
  ScriptOp op;
  op.producer = producer;
  op.ev.time = t;
  op.ev.kind = kind;
  op.ev.key = key;
  op.ev.resource = resource;
  op.ev.a = a;
  op.ev.b = b;
  return op;
}

// The §5-style lock-convoy scenario spread over four producer threads:
// producer 0 registers and runs the culprit, producers 1-2 the waiting
// victims, producer 3 reports SLO-violating completions. Times are strictly
// increasing so global timestamp order is unambiguous.
std::vector<ScriptOp> ConvoyScript(ResourceId lock) {
  std::vector<ScriptOp> script;
  script.push_back(Op(0, 100, TraceEventKind::kTaskRegistered, 100));
  script.push_back(Op(1, 200, TraceEventKind::kTaskRegistered, 200));
  script.push_back(Op(2, 300, TraceEventKind::kTaskRegistered, 201));
  script.push_back(Op(0, 1100, TraceEventKind::kGet, 100, lock, 1));
  script.push_back(Op(0, 1150, TraceEventKind::kProgress, 100, kInvalidResourceId, 5, 100));
  script.push_back(Op(1, 1200, TraceEventKind::kRequestStart, 200));
  script.push_back(Op(1, 1300, TraceEventKind::kWaitBegin, 200, lock));
  script.push_back(Op(2, 1400, TraceEventKind::kWaitBegin, 201, lock));
  // Three windows of flat-throughput completions far past the SLO.
  TimeMicros t = 2000;
  for (int w = 0; w < 3; w++) {
    for (int i = 0; i < 20; i++) {
      script.push_back(Op(3, t, TraceEventKind::kRequestEnd, 9999, kInvalidResourceId, 50000));
      t += 137;  // off the sampling grid on purpose
    }
    t = (w + 1) * Millis(100) + 2000;
  }
  // A completed wait+use report riding along (the OnUsage path).
  script.push_back(Op(2, t, TraceEventKind::kUsage, 201, lock, 700, 1400));
  return script;
}

// Applies one scripted call directly to a bare runtime — the single-threaded
// reference the concurrent pipeline must be indistinguishable from.
void ApplyDirect(AtroposRuntime& rt, const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kTaskRegistered:
      rt.OnTaskRegistered(ev.key, ev.background, ev.cancellable);
      break;
    case TraceEventKind::kTaskFreed:
      rt.OnTaskFreed(ev.key);
      break;
    case TraceEventKind::kGet:
      rt.OnGet(ev.key, ev.resource, ev.a);
      break;
    case TraceEventKind::kFree:
      rt.OnFree(ev.key, ev.resource, ev.a);
      break;
    case TraceEventKind::kWaitBegin:
      rt.OnWaitBegin(ev.key, ev.resource);
      break;
    case TraceEventKind::kWaitEnd:
      rt.OnWaitEnd(ev.key, ev.resource);
      break;
    case TraceEventKind::kRequestStart:
      rt.OnRequestStart(ev.key, ev.request_type, ev.client_class);
      break;
    case TraceEventKind::kRequestEnd:
      rt.OnRequestEnd(ev.key, ev.a, ev.request_type, ev.client_class);
      break;
    case TraceEventKind::kUsage:
      rt.OnUsage(ev.key, ev.resource, ev.a, ev.b);
      break;
    case TraceEventKind::kProgress:
      rt.OnProgress(ev.key, ev.a, ev.b);
      break;
  }
}

// A manually set clock whose ticks are not microseconds: three per µs from
// an offset of 2^40, so Tick() has a real conversion to make. Optionally runs
// a hook once, right after the next NowMicros() read — the drainer's second
// anchor read — to model a producer that stamps and pushes just as the
// drainer anchors.
class ScaledClock final : public Clock {
 public:
  static constexpr uint64_t kOffset = uint64_t{1} << 40;

  TimeMicros NowMicros() const override {
    const TimeMicros now = now_;
    if (on_micros_read_) {
      std::function<void()> hook = std::move(on_micros_read_);
      on_micros_read_ = nullptr;
      hook();
    }
    return now;
  }
  uint64_t NowTicks() const override { return 3 * now_ + kOffset; }

  void SetTime(TimeMicros t) { now_ = t; }
  void RunAfterNextMicrosRead(std::function<void()> hook) { on_micros_read_ = std::move(hook); }

 private:
  TimeMicros now_ = 0;
  mutable std::function<void()> on_micros_read_;
};

// What one run of ConvoyScript decided.
struct ConvoyOutcome {
  std::vector<uint64_t> cancels;
  std::string jsonl;
  AtroposStats stats;
};

constexpr TimeMicros kScriptTick = Millis(100);
constexpr int kScriptWindows = 4;

// Pipeline run: ConvoyScript through four producers' rings, one Tick per
// 100 ms window. Each Push restamps ev.time from the clock, which is set to
// the scripted time first.
template <typename TestClock>
ConvoyOutcome RunConvoyThroughRings(ConcurrentFrontend::IntakeStats* intake) {
  TestClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("table_lock", ResourceClass::kLock);
  FlightRecorder rec;
  frontend.runtime().SetRecorder(&rec);
  ConvoyOutcome out;
  // atropos-lint: allow(cancel-action-safety)
  frontend.runtime().SetCancelAction([&](uint64_t key) { out.cancels.push_back(key); });
  std::vector<ConcurrentFrontend::Producer*> producers;
  for (int i = 0; i < 4; i++) {
    producers.push_back(frontend.RegisterProducer());
  }
  std::vector<ScriptOp> script = ConvoyScript(lock);
  size_t next = 0;
  for (int w = 1; w <= kScriptWindows; w++) {
    const TimeMicros tick_at = w * kScriptTick;
    while (next < script.size() && script[next].ev.time < tick_at) {
      clock.SetTime(script[next].ev.time);
      producers[script[next].producer]->Push(script[next].ev);
      next++;
    }
    clock.SetTime(tick_at);
    frontend.Tick();
  }
  EXPECT_EQ(next, script.size()) << "script must fit in the ticked horizon";
  out.jsonl = EventsToJsonl(rec.Snapshot());
  out.stats = frontend.runtime().stats();
  *intake = frontend.intake_stats();
  return out;
}

// Reference run: the same events fed to a bare runtime in global timestamp
// order — what the concurrent pipeline must be indistinguishable from.
ConvoyOutcome RunConvoyDirect() {
  ManualClock clock(0);
  AtroposRuntime runtime(&clock, TestConfig());
  ResourceId lock = runtime.RegisterResource("table_lock", ResourceClass::kLock);
  FlightRecorder rec;
  runtime.SetRecorder(&rec);
  ConvoyOutcome out;
  // atropos-lint: allow(cancel-action-safety)
  runtime.SetCancelAction([&](uint64_t key) { out.cancels.push_back(key); });
  std::vector<ScriptOp> sorted = ConvoyScript(lock);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ScriptOp& a, const ScriptOp& b) { return a.ev.time < b.ev.time; });
  size_t next = 0;
  for (int w = 1; w <= kScriptWindows; w++) {
    const TimeMicros tick_at = w * kScriptTick;
    while (next < sorted.size() && sorted[next].ev.time < tick_at) {
      clock.SetTime(sorted[next].ev.time);
      ApplyDirect(runtime, sorted[next].ev);
      next++;
    }
    clock.SetTime(tick_at);
    runtime.Tick();
  }
  out.jsonl = EventsToJsonl(rec.Snapshot());
  out.stats = runtime.stats();
  return out;
}

void ExpectSameDecisions(const ConvoyOutcome& a, const ConvoyOutcome& b) {
  EXPECT_EQ(a.cancels, b.cancels);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.stats.trace_events, b.stats.trace_events);
  EXPECT_EQ(a.stats.ignored_events, b.stats.ignored_events);
  EXPECT_EQ(a.stats.cancels_issued, b.stats.cancels_issued);
  EXPECT_EQ(a.stats.resource_overload_windows, b.stats.resource_overload_windows);
}

// The tentpole property: draining N producers' rings produces decisions
// byte-for-byte identical (on the flight-recorder JSONL) to feeding the same
// events to a bare AtroposRuntime in timestamp order. Covers ring merge
// order, enqueue-time stamping, explicit-time apply, and the ledger's
// sampled-mode quantization of the carried stamps.
TEST(ConcurrentFrontendDeterminism, DrainedDecisionsMatchDirectFeeding) {
  ConcurrentFrontend::IntakeStats intake;
  const ConvoyOutcome rings = RunConvoyThroughRings<ManualClock>(&intake);
  const ConvoyOutcome direct = RunConvoyDirect();

  // The scenario must actually decide something, or the comparison is hollow.
  ASSERT_EQ(direct.cancels.size(), 1u);
  EXPECT_EQ(direct.cancels[0], 100u);  // the lock holder, not a waiter
  ExpectSameDecisions(rings, direct);
  EXPECT_EQ(intake.drained_total, ConvoyScript(0).size());
  EXPECT_EQ(intake.dropped_total, 0u);
}

// The same scripts under a clock whose ticks are not microseconds: the
// per-Tick conversion hands the ledger exactly the µs each hook ran at, so
// nothing downstream can tell the difference.
TEST(ConcurrentFrontendDeterminism, DrainedDecisionsMatchDirectFeedingUnderScaledTicks) {
  ConcurrentFrontend::IntakeStats intake;
  const ConvoyOutcome rings = RunConvoyThroughRings<ScaledClock>(&intake);
  const ConvoyOutcome direct = RunConvoyDirect();
  ASSERT_EQ(direct.cancels.size(), 1u);
  ExpectSameDecisions(rings, direct);
  EXPECT_EQ(intake.dropped_total, 0u);
}

// Merge-order property over seeded random scripts. Every scripted event
// registers a fresh task key, so the TaskIds the runtime hands out record the
// exact order Apply saw the events in, and created_at the stamp it applied
// each at. Scripts vary the producer count (0-8), share stamps across rings,
// leave rings empty, overflow rings, and let producer threads exit (retiring
// their rings) between their last push and the Tick. The applied order must
// be a stable sort by time of the runs concatenated in registration order.
TEST(ConcurrentFrontendMerge, AppliedOrderIsStableSortOfRunsInRegistrationOrder) {
  constexpr size_t kRingCapacity = 16;
  for (uint64_t seed = 1; seed <= 300; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ManualClock clock(0);
    ConcurrentFrontend::Options opt;
    opt.ring_capacity = kRingCapacity;
    ConcurrentFrontend frontend(&clock, TestConfig(), opt);

    struct Applied {
      uint64_t key;
      TimeMicros time;
    };
    std::vector<Applied> expected;  // drained runs, in registration order
    uint64_t pushed = 0;
    const int producers = static_cast<int>(rng.NextBounded(9));
    for (int p = 0; p < producers; p++) {
      // Nondecreasing stamps from a narrow range: ties across rings are the
      // common case, not the exception.
      const size_t events = rng.NextBernoulli(0.2) ? 0 : rng.NextBounded(2 * kRingCapacity);
      std::vector<TimeMicros> times(events);
      for (TimeMicros& t : times) {
        t = rng.NextBounded(12);
      }
      std::sort(times.begin(), times.end());
      auto key_of = [p](size_t i) { return 1000 * static_cast<uint64_t>(p + 1) + i; };
      if (events > 0 && rng.NextBernoulli(0.4)) {
        // Auto-bound through the hooks; the thread's exit retires the ring.
        std::thread worker([&] {
          for (size_t i = 0; i < events; i++) {
            clock.SetTime(times[i]);
            frontend.OnTaskRegistered(key_of(i), false);
          }
        });
        worker.join();
      } else {
        ConcurrentFrontend::Producer* handle = frontend.RegisterProducer();
        for (size_t i = 0; i < events; i++) {
          clock.SetTime(times[i]);
          handle->Push(TraceEvent::TaskRegistered(key_of(i), false, true));
        }
      }
      // Nothing drains before the Tick, so a ring keeps its first
      // kRingCapacity events and drops the rest.
      for (size_t i = 0; i < std::min(events, kRingCapacity); i++) {
        expected.push_back(Applied{key_of(i), times[i]});
      }
      pushed += events;
    }
    clock.SetTime(Millis(100));
    frontend.Tick();

    std::stable_sort(expected.begin(), expected.end(),
                     [](const Applied& a, const Applied& b) { return a.time < b.time; });
    std::vector<std::pair<TaskId, Applied>> by_id;
    for (const Applied& e : expected) {
      const TaskRecord* task = frontend.runtime().FindTask(e.key);
      ASSERT_NE(task, nullptr) << "key " << e.key;
      by_id.push_back({task->id, Applied{e.key, task->created_at}});
    }
    std::sort(by_id.begin(), by_id.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < expected.size(); i++) {
      EXPECT_EQ(by_id[i].second.key, expected[i].key) << "position " << i;
      EXPECT_EQ(by_id[i].second.time, expected[i].time) << "position " << i;
    }

    const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
    EXPECT_EQ(intake.drained_total, expected.size());
    EXPECT_EQ(intake.drained_total + intake.dropped_total, pushed);
    EXPECT_EQ(frontend.runtime().live_task_count(), expected.size());
  }
}

// ---- Tick-time conversion of raw ticks --------------------------------------

// The µs each pushed key's task was created at: the stamp Apply handed the
// ledger. Every test below registers a fresh key per event.
TimeMicros AppliedAt(const ConcurrentFrontend& frontend, uint64_t key) {
  const TaskRecord* task = frontend.runtime().FindTask(key);
  EXPECT_NE(task, nullptr) << "key " << key;
  return task == nullptr ? 0 : task->created_at;
}

// Seeded scripts: three producers push at irregular µs over Ticks at
// irregular intervals, and one more push lands right after each Tick's anchor
// read (so it is drained by the next Tick). Every applied stamp must be the
// µs its hook ran at, to within 1.
TEST(ConcurrentFrontendTicks, AppliedStampIsTheMicrosecondTheHookRanAt) {
  for (uint64_t seed = 1; seed <= 50; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ScaledClock clock;
    ConcurrentFrontend frontend(&clock, TestConfig());
    std::vector<ConcurrentFrontend::Producer*> producers;
    for (int p = 0; p < 3; p++) {
      producers.push_back(frontend.RegisterProducer());
    }
    std::vector<std::pair<uint64_t, TimeMicros>> pushed;  // key, µs at the hook
    uint64_t key = 1;
    TimeMicros now = 0;
    for (int tick = 0; tick < 8; tick++) {
      const uint64_t events = rng.NextBounded(40);
      for (uint64_t i = 0; i < events; i++) {
        now += 1 + rng.NextBounded(5000);
        clock.SetTime(now);
        producers[rng.NextBounded(3)]->Push(TraceEvent::TaskRegistered(key, false, true));
        pushed.push_back({key++, now});
      }
      now += 1 + rng.NextBounded(20000);
      clock.SetTime(now);
      const TimeMicros late = now + 2 + rng.NextBounded(100);
      ConcurrentFrontend::Producer* straggler = producers[rng.NextBounded(3)];
      const uint64_t late_key = key++;
      clock.RunAfterNextMicrosRead([&clock, late, straggler, late_key] {
        clock.SetTime(late);
        straggler->Push(TraceEvent::TaskRegistered(late_key, false, true));
      });
      pushed.push_back({late_key, late});
      frontend.Tick();
      now = late;
    }
    clock.SetTime(now + 1000);
    frontend.Tick();  // drains the last straggler

    for (const auto& [k, at] : pushed) {
      const TimeMicros applied = AppliedAt(frontend, k);
      EXPECT_LE(applied, at + 1) << "key " << k;
      EXPECT_GE(applied + 1, at) << "key " << k;
    }
  }
}

// A stamp can fall outside the Tick that drains it: taken before the previous
// anchor (pushed between that Tick's pops and its anchor read), or after this
// one when counters are skewed across cores. It clamps to the nearer anchor.
TEST(ConcurrentFrontendTicks, StampsOutsideTheTickClampToItsAnchors) {
  ScaledClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  clock.SetTime(500);
  frontend.Tick();  // anchors at 500 µs
  clock.SetTime(300);
  p->Push(TraceEvent::TaskRegistered(1, false, true));
  clock.SetTime(700);
  p->Push(TraceEvent::TaskRegistered(2, false, true));
  clock.SetTime(1200);
  p->Push(TraceEvent::TaskRegistered(3, false, true));
  clock.SetTime(1000);
  frontend.Tick();  // anchors at 1000 µs

  EXPECT_EQ(AppliedAt(frontend, 1), 500u);
  EXPECT_EQ(AppliedAt(frontend, 2), 700u);
  EXPECT_EQ(AppliedAt(frontend, 3), 1000u);
}

// Seeded scripts whose stamps stray up to 2 ms either side of the Tick that
// drains them, on three rings. In the order Apply saw them (TaskId order)
// the applied times never decrease, within a Tick or across Ticks.
TEST(ConcurrentFrontendTicks, AppliedTimesNeverDecreaseAcrossTicks) {
  for (uint64_t seed = 1; seed <= 50; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ScaledClock clock;
    ConcurrentFrontend frontend(&clock, TestConfig());
    std::vector<ConcurrentFrontend::Producer*> producers;
    for (int p = 0; p < 3; p++) {
      producers.push_back(frontend.RegisterProducer());
    }
    TimeMicros last[3] = {};  // a ring's stamps are nondecreasing
    uint64_t key = 1;
    TimeMicros now = 10000;
    for (int tick = 0; tick < 10; tick++) {
      const uint64_t events = rng.NextBounded(30);
      for (uint64_t i = 0; i < events; i++) {
        const size_t p = rng.NextBounded(3);
        const TimeMicros stamp = std::max(last[p], now - 2000 + rng.NextBounded(4000));
        clock.SetTime(stamp);
        producers[p]->Push(TraceEvent::TaskRegistered(key++, false, true));
        last[p] = stamp;
      }
      now += 1000 + rng.NextBounded(5000);
      clock.SetTime(now);
      frontend.Tick();
    }

    std::vector<std::pair<TaskId, TimeMicros>> applied;
    for (uint64_t k = 1; k < key; k++) {
      const TaskRecord* task = frontend.runtime().FindTask(k);
      ASSERT_NE(task, nullptr) << "key " << k;
      applied.push_back({task->id, task->created_at});
    }
    std::sort(applied.begin(), applied.end());
    for (size_t i = 1; i < applied.size(); i++) {
      EXPECT_LE(applied[i - 1].second, applied[i].second) << "position " << i;
    }
  }
}

// SteadyClock's ticks are the hardware counter: nondecreasing on one thread,
// and an event stamped between two Ticks 20 ms apart converts to about the
// µs it was pushed at.
TEST(ConcurrentFrontendTicks, SteadyClockTicksConvertAcrossASleep) {
  SteadyClock clock;
  uint64_t prev = clock.NowTicks();
  for (int i = 0; i < 100000; i++) {
    const uint64_t t = clock.NowTicks();
    ASSERT_GE(t, prev);
    prev = t;
  }

  ConcurrentFrontend frontend(&clock, TestConfig());
  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  frontend.Tick();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const TimeMicros before = clock.NowMicros();
  p->Push(TraceEvent::TaskRegistered(1, false, true));
  const TimeMicros after = clock.NowMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  frontend.Tick();

  // Loose: a preempted anchor read skews the slope, never by whole seconds
  // or by a unit mix-up.
  const TimeMicros applied = AppliedAt(frontend, 1);
  EXPECT_GE(applied + Millis(5), before);
  EXPECT_LE(applied, after + Millis(5));
}

// Ring overflow is lossy-with-counter: a full ring drops the event, counts
// it, and the drain/gauge accounting reconciles drops against drains.
TEST(ConcurrentFrontendTest, RingOverflowDropsAreCounted) {
  ManualClock clock(0);
  ConcurrentFrontend::Options opt;
  opt.ring_capacity = 8;
  ConcurrentFrontend frontend(&clock, TestConfig(), opt);
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);
  MetricsRegistry metrics;
  frontend.BindMetrics(&metrics);

  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  p->Push(TraceEvent::TaskRegistered(1, false, true));
  for (int i = 0; i < 19; i++) {
    clock.Advance(10);
    p->Push(TraceEvent::Get(1, lock, 1));
  }
  EXPECT_EQ(p->dropped(), 12u);  // 20 pushes into an 8-slot ring

  clock.SetTime(Millis(100));
  frontend.Tick();
  const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
  EXPECT_EQ(intake.drained_last_tick, 8u);
  EXPECT_EQ(intake.drained_total, 8u);
  EXPECT_EQ(intake.dropped_total, 12u);
  EXPECT_EQ(intake.max_ring_depth, 8u);
  EXPECT_EQ(intake.producers, 1u);

  MetricsRegistry::Snapshot snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.gauges.at("intake.ring_depth"), 8.0);
  EXPECT_EQ(snap.gauges.at("intake.drained_per_tick"), 8.0);
  EXPECT_EQ(snap.gauges.at("intake.dropped_events"), 12.0);
  EXPECT_EQ(snap.gauges.at("intake.producers"), 1.0);

  // The runtime saw exactly the drained prefix: the registration + 7 gets.
  EXPECT_EQ(frontend.runtime().stats().trace_events, 7u);
  EXPECT_EQ(frontend.runtime().live_task_count(), 1u);
}

// The producer checks for room against a cached copy of the head: a ring of
// capacity C takes exactly C pushes and drops the next one, and after the
// consumer releases k slots it takes exactly k more. Several rounds wrap the
// indices; each round releases a different k.
TEST(EventRingTest, CachedHeadAdmitsExactlyTheFreedSlots) {
  for (size_t cap : {2, 8, 64}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    EventRing ring(cap);
    uint64_t time = 0;
    uint64_t drops = 0;
    for (int i = 0; i < static_cast<int>(cap); i++) {
      ASSERT_TRUE(ring.Push(TraceEvent::TaskFreed(time), time)) << "push " << i;
      time++;
    }
    EXPECT_FALSE(ring.Push(TraceEvent::TaskFreed(time), time));
    EXPECT_EQ(ring.dropped(), ++drops);
    for (size_t k : {size_t{1}, cap / 2, cap, size_t{1}, cap}) {
      SCOPED_TRACE("release " + std::to_string(k));
      const uint64_t head = ring.head();
      EXPECT_EQ(ring.slot(head).time, head);  // the oldest unreleased push
      ring.Release(head + k);
      for (size_t i = 0; i < k; i++) {
        ASSERT_TRUE(ring.Push(TraceEvent::TaskFreed(time), time)) << "push " << i;
        time++;
      }
      EXPECT_FALSE(ring.Push(TraceEvent::TaskFreed(time), time));
      EXPECT_EQ(ring.dropped(), ++drops);
      EXPECT_EQ(ring.PublishedTail() - ring.head(), cap);
      EXPECT_EQ(ring.slot(ring.PublishedTail() - 1).time, time - 1);
    }
  }
}

// The merge reads events in place and hands slots back as it passes them:
// rings filled to capacity - 1 (wrapping on the second round) are applied in
// (time, registration) order, and after the Tick every ring takes `capacity`
// more pushes without a drop. The capacity spans several release batches.
TEST(ConcurrentFrontendInPlaceDrain, FullRingsAreAppliedInOrderAndReleased) {
  constexpr size_t kCap = 256;
  for (int rings = 1; rings <= 3; rings++) {
    SCOPED_TRACE("rings " + std::to_string(rings));
    ManualClock clock(0);
    ConcurrentFrontend::Options opt;
    opt.ring_capacity = kCap;
    ConcurrentFrontend frontend(&clock, TestConfig(), opt);
    std::vector<ConcurrentFrontend::Producer*> producers;
    for (int r = 0; r < rings; r++) {
      producers.push_back(frontend.RegisterProducer());
    }
    uint64_t next_key = 1;
    TimeMicros t = 1;
    for (size_t fill : {kCap - 1, kCap}) {
      // Ring r pushes at stamps t + i * rings + r: the merged order cycles
      // through the rings, and its i-th event carries key base + i * rings + r.
      const uint64_t base = next_key;
      for (int r = 0; r < rings; r++) {
        for (size_t i = 0; i < fill; i++) {
          clock.SetTime(t + static_cast<TimeMicros>(i * rings + r));
          ASSERT_TRUE(producers[r]->Push(
              TraceEvent::TaskRegistered(base + i * rings + r, false, true)))
              << "ring " << r << " push " << i;
        }
        EXPECT_EQ(producers[r]->dropped(), 0u);
      }
      next_key += fill * rings;
      t += static_cast<TimeMicros>(fill * rings);
      clock.SetTime(t);
      frontend.Tick();
      EXPECT_EQ(frontend.intake_stats().drained_last_tick, fill * rings);
      TaskId last_id = kInvalidTaskId;
      for (uint64_t key = base; key < next_key; key++) {
        const TaskRecord* task = frontend.runtime().FindTask(key);
        ASSERT_NE(task, nullptr) << "key " << key;
        EXPECT_GT(task->id, last_id) << "key " << key;  // applied in key order
        EXPECT_EQ(task->created_at, static_cast<TimeMicros>(key - base) + t -
                                        static_cast<TimeMicros>(fill * rings));
        last_id = task->id;
      }
    }
    EXPECT_EQ(frontend.intake_stats().dropped_total, 0u);
  }
}

// The OverloadController hooks bind each calling thread to its own ring on
// first use.
TEST(ConcurrentFrontendTest, HooksAutoRegisterCallingThread) {
  ManualClock clock(0);
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);
  frontend.OnTaskRegistered(7, false);
  frontend.OnGet(7, lock, 1);
  std::thread other([&] {
    frontend.OnTaskRegistered(8, false);
    frontend.OnGet(8, lock, 1);
  });
  other.join();
  clock.SetTime(Millis(100));
  frontend.Tick();
  // Both threads got their own ring; the exited one was drained in full and
  // then reclaimed, leaving only the calling thread's ring live.
  EXPECT_EQ(frontend.intake_stats().producers_seen, 2u);
  EXPECT_EQ(frontend.intake_stats().producers, 1u);
  EXPECT_EQ(frontend.intake_stats().drained_total, 4u);
  EXPECT_EQ(frontend.runtime().live_task_count(), 2u);
}

}  // namespace

// Reads the calling thread's producer-binding count for the test below.
struct ConcurrentFrontendTestPeer {
  static size_t ThisThreadBindingCount() { return ConcurrentFrontend::ThisThreadBindingCount(); }
};

namespace {

// A long-lived thread that feeds many short-lived frontends in turn keeps
// only the binding to the live one: each new binding drops those to
// frontends destroyed since.
TEST(ConcurrentFrontendTest, ThreadFeedingManyFrontendsKeepsOneBinding) {
  ManualClock clock(0);
  ConcurrentFrontend::Options opt;
  opt.ring_capacity = 8;
  size_t max_bindings = 0;
  std::thread worker([&] {
    for (uint64_t i = 0; i < 1000; i++) {
      ConcurrentFrontend frontend(&clock, TestConfig(), opt);
      frontend.OnTaskRegistered(i, false);
      max_bindings =
          std::max(max_bindings, ConcurrentFrontendTestPeer::ThisThreadBindingCount());
      frontend.Tick();
      EXPECT_NE(frontend.runtime().FindTask(i), nullptr);
    }
  });
  worker.join();
  EXPECT_EQ(max_bindings, 1u);
}

// The calling thread's one-slot binding cache is keyed by instance id, not
// by address: a frontend built in the storage of a destroyed one must not
// reach the destroyed frontend's (freed) ring through the cache. Every event
// lands in the new frontend; under ASan a stale hit reads as a
// heap-use-after-free.
TEST(ConcurrentFrontendTest, FrontendRebuiltAtTheSameAddressGetsItsOwnRing) {
  ManualClock clock(0);
  std::optional<ConcurrentFrontend> storage;
  std::thread worker([&] {
    storage.emplace(&clock, TestConfig());
    const ConcurrentFrontend* first = &*storage;
    storage->OnTaskRegistered(1, false);
    storage->Tick();
    EXPECT_EQ(storage->intake_stats().drained_total, 1u);
    storage.reset();

    storage.emplace(&clock, TestConfig());
    ASSERT_EQ(&*storage, first);
    for (uint64_t key = 10; key < 15; key++) {
      storage->OnTaskRegistered(key, false);
    }
    storage->Tick();
    const ConcurrentFrontend::IntakeStats& intake = storage->intake_stats();
    EXPECT_EQ(intake.drained_total, 5u);
    EXPECT_EQ(intake.dropped_total, 0u);
    EXPECT_EQ(intake.producers_seen, 1u);
    EXPECT_EQ(storage->runtime().live_task_count(), 5u);
    EXPECT_EQ(storage->runtime().FindTask(1), nullptr);
    storage.reset();
  });
  worker.join();
}

// A thread that alternates between two live frontends misses the one-slot
// cache on every switch; each event must still reach its own runtime through
// the thread's one ring per frontend.
TEST(ConcurrentFrontendTest, ThreadAlternatingFrontendsRoutesEachEventToItsOwn) {
  ManualClock clock(0);
  ConcurrentFrontend a(&clock, TestConfig());
  ConcurrentFrontend b(&clock, TestConfig());
  constexpr uint64_t kRounds = 50;
  std::thread worker([&] {
    for (uint64_t i = 0; i < kRounds; i++) {
      a.OnTaskRegistered(1000 + i, false);
      b.OnTaskRegistered(2000 + i, false);
      a.OnTaskRegistered(3000 + i, false);
    }
  });
  worker.join();
  a.Tick();
  b.Tick();
  EXPECT_EQ(a.intake_stats().drained_total, 2 * kRounds);
  EXPECT_EQ(b.intake_stats().drained_total, kRounds);
  EXPECT_EQ(a.intake_stats().producers_seen, 1u);
  EXPECT_EQ(b.intake_stats().producers_seen, 1u);
  for (uint64_t i = 0; i < kRounds; i++) {
    EXPECT_NE(a.runtime().FindTask(1000 + i), nullptr) << i;
    EXPECT_NE(a.runtime().FindTask(3000 + i), nullptr) << i;
    EXPECT_EQ(a.runtime().FindTask(2000 + i), nullptr) << i;
    EXPECT_NE(b.runtime().FindTask(2000 + i), nullptr) << i;
    EXPECT_EQ(b.runtime().FindTask(1000 + i), nullptr) << i;
    EXPECT_EQ(b.runtime().FindTask(3000 + i), nullptr) << i;
  }
}

// Multi-producer stress with a concurrent drainer: real OS threads hammer
// the intake while Tick() drains. Run under the tsan preset this is the
// data-race proof; in any build it checks intake conservation (every push is
// either drained into the runtime or counted as dropped).
TEST(ConcurrentFrontendStress, ConcurrentProducersAndDrainerConserveEvents) {
  const int kThreads = 4;
  const int kEventsPerThread = 20000;
  SteadyClock clock;
  ConcurrentFrontend::Options opt;
  opt.ring_capacity = 1 << 10;  // small enough that overflow is plausible
  ConcurrentFrontend frontend(&clock, TestConfig(), opt);
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);

  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      frontend.Tick();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; t++) {
    producers.emplace_back([&, t] {
      const uint64_t key = 1000 + t;
      frontend.OnTaskRegistered(key, false);
      uint64_t mine = 1;
      for (int i = 0; i < kEventsPerThread; i += 4) {
        frontend.OnGet(key, lock, 1);
        frontend.OnWaitBegin(key, lock);
        frontend.OnWaitEnd(key, lock);
        frontend.OnFree(key, lock, 1);
        mine += 4;
      }
      frontend.OnTaskFreed(key);
      mine += 1;
      pushed.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (std::thread& p : producers) {
    p.join();
  }
  stop.store(true, std::memory_order_release);
  drainer.join();
  frontend.Tick();  // final drain of anything still buffered

  const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
  // Every auto-bound producer thread has exited and joined before the final
  // Tick, so its ring was retired and freed — but all of its events were
  // either drained or counted as dropped first (conservation below).
  EXPECT_EQ(intake.producers_seen, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(intake.producers_retired, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(intake.producers, 0u);
  EXPECT_EQ(frontend.live_producer_count(), 0u);
  EXPECT_EQ(intake.drained_total + intake.dropped_total, pushed.load());
  EXPECT_GT(intake.drained_total, 0u);
}

// Producer lifecycle regression (live mode): a worker thread that registers,
// enqueues, and exits *before any drain* must still have every queued event
// applied, and its ring must be reclaimed rather than left as a stale
// producers_ entry. Register → enqueue → exit → drain, under TSan when run
// with the tsan preset.
TEST(ConcurrentFrontendStress, ExitedProducerIsDrainedThenReclaimed) {
  SteadyClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);

  const int kEvents = 100;
  std::thread worker([&] {
    frontend.OnTaskRegistered(42, false);
    for (int i = 0; i < kEvents; i++) {
      frontend.OnGet(42, lock, 1);
      frontend.OnFree(42, lock, 1);
    }
  });
  worker.join();  // thread fully exited: TLS destructor has retired the ring
  EXPECT_EQ(frontend.live_producer_count(), 1u);

  // First drain after the exit applies everything the thread queued...
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_total,
            static_cast<uint64_t>(1 + 2 * kEvents));
  EXPECT_EQ(frontend.intake_stats().dropped_total, 0u);
  EXPECT_NE(frontend.runtime().FindTask(42), nullptr);
  // ...and reclaims the ring: no stale producers_ entry remains.
  EXPECT_EQ(frontend.live_producer_count(), 0u);
  EXPECT_EQ(frontend.intake_stats().producers_retired, 1u);
  EXPECT_EQ(frontend.intake_stats().producers_seen, 1u);

  // A second Tick is a no-op on the reclaimed ring.
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_last_tick, 0u);
  EXPECT_EQ(frontend.intake_stats().producers, 0u);
}

// Short-lived worker threads push and exit while a drainer ticks. A Tick
// that sees a ring retired reads its run in place during the merge, so the
// ring must outlive the merge: under ASan an early free reads as a
// heap-use-after-free, and every event must be applied exactly once.
TEST(ConcurrentFrontendStress, ExitedProducersAreAppliedBeforeTheirRingsAreFreed) {
  constexpr int kWorkers = 24;
  constexpr int kConcurrent = 4;
  constexpr uint64_t kEvents = 300;  // well under the ring capacity: no drops
  SteadyClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);
  // A held handle keeps a second run in the merge.
  ConcurrentFrontend::Producer* held = frontend.RegisterProducer();

  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      frontend.Tick();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  uint64_t held_pushes = 0;
  for (int round = 0; round < kWorkers / kConcurrent; round++) {
    std::vector<std::thread> workers;
    for (int w = 0; w < kConcurrent; w++) {
      const uint64_t base = static_cast<uint64_t>(round * kConcurrent + w + 1) << 20;
      workers.emplace_back([&frontend, lock, base] {
        for (uint64_t i = 0; i < kEvents; i++) {
          frontend.OnTaskRegistered(base + i, false);
          frontend.OnGet(base + i, lock, 1);
        }
      });
    }
    for (int i = 0; i < 200; i++) {
      held_pushes += held->Push(TraceEvent::Get(7, lock, 1)) ? 1 : 0;
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }
  stop.store(true, std::memory_order_release);
  drainer.join();
  frontend.Tick();

  const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
  EXPECT_EQ(intake.dropped_total, 0u);
  EXPECT_EQ(intake.producers_retired, static_cast<uint64_t>(kWorkers));
  EXPECT_EQ(frontend.live_producer_count(), 1u);
  EXPECT_EQ(intake.drained_total, kWorkers * 2 * kEvents + held_pushes);
  EXPECT_EQ(frontend.runtime().live_task_count(), kWorkers * kEvents);
}

// An explicitly held RegisterProducer() handle must never be auto-retired —
// its owner may outlive many Tick() cycles (mt_ingest's reuse pattern).
TEST(ConcurrentFrontendStress, ExplicitProducerHandleSurvivesTicks) {
  SteadyClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);

  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  std::thread worker([&] { p->Push(TraceEvent::Get(7, lock, 1)); });
  worker.join();
  frontend.Tick();
  EXPECT_EQ(frontend.live_producer_count(), 1u);

  // The handle is still usable from another thread after the first exited.
  std::thread worker2([&] { p->Push(TraceEvent::Free(7, lock, 1)); });
  worker2.join();
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_total, 2u);
  EXPECT_EQ(frontend.intake_stats().producers_retired, 0u);
}

}  // namespace
}  // namespace atropos
