#include "src/testing/audit_controller.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"

namespace atropos {
namespace {

AtroposConfig Config() {
  AtroposConfig cfg;
  cfg.window = Millis(100);
  cfg.baseline_p99 = 1000;
  cfg.min_cancel_interval = Millis(100);
  cfg.timestamp_mode = TimestampMode::kPerEvent;
  return cfg;
}

// One runtime with its own recorder and cancel list. Cancels and their scores
// are collected by the observer, which fires at issue time; the initiator
// only acknowledges.
struct Stack {
  explicit Stack(Clock* clock) : runtime(clock, Config()) {
    runtime.SetRecorder(&recorder);
    runtime.SetCancelAction([](uint64_t) {});
  }
  AtroposRuntime runtime;
  FlightRecorder recorder;
  std::vector<std::pair<uint64_t, double>> cancelled;
};

// The audit shadows the stream for the oracles and must hand the runtime
// exactly what a runtime fed directly would see: the same events at the same
// clock readings, so the same decisions.
TEST(AuditControllerTest, ForwardsTheStreamUnchanged) {
  ManualClock clock(0);
  Stack audited(&clock);
  Stack twin(&clock);
  AuditController audit(audited.runtime);
  audited.runtime.SetCancelObserver([&](uint64_t key, double score) {
    audit.OnCancelIssued(key, score);
    audited.cancelled.emplace_back(key, score);
  });
  twin.runtime.SetCancelObserver(
      [&](uint64_t key, double score) { twin.cancelled.emplace_back(key, score); });
  const ResourceId lock = audit.RegisterResource("lock", ResourceClass::kLock);
  const ResourceId cpu = audit.RegisterResource("cpu", ResourceClass::kCpu);
  ASSERT_EQ(twin.runtime.RegisterResource("lock", ResourceClass::kLock), lock);
  ASSERT_EQ(twin.runtime.RegisterResource("cpu", ResourceClass::kCpu), cpu);

  using Step = std::function<void(OverloadController&)>;
  const auto window = [](OverloadController& c) { c.Tick(); };
  const std::vector<Step> script = {
      // Window 1: culprit 100 holds the lock; request 200 queues behind it
      // while a completed CPU report and a progress update ride along.
      [](OverloadController& c) { c.OnTaskRegistered(100, false); },
      [](OverloadController& c) { c.OnTaskRegistered(200, false); },
      [](OverloadController& c) { c.OnRequestStart(200, 0, 0); },
      [&](OverloadController& c) { c.OnGet(100, lock, 1); },
      [&](OverloadController& c) { c.OnUsage(100, cpu, 300, 700); },
      [&](OverloadController& c) { c.OnWaitBegin(200, lock); },
      [](OverloadController& c) { c.OnProgress(100, 1, 10); },
      window,
      // The cancelled culprit releases and is re-executed under its key.
      [&](OverloadController& c) { c.OnFree(100, lock, 1); },
      [](OverloadController& c) { c.OnTaskFreed(100); },
      [](OverloadController& c) { c.OnTaskRegistered(100, false); },
      [&](OverloadController& c) { c.OnGet(100, lock, 1); },
      [](OverloadController& c) { c.OnProgress(100, 3, 10); },
      // Request 200 restarts under its key while still in flight.
      [&](OverloadController& c) { c.OnWaitEnd(200, lock); },
      [](OverloadController& c) { c.OnRequestStart(200, 0, 0); },
      [&](OverloadController& c) { c.OnWaitBegin(200, lock); },
      // A second holder joins: the re-executed 100 is now non-cancellable.
      [](OverloadController& c) { c.OnTaskRegistered(300, false); },
      [&](OverloadController& c) { c.OnGet(300, lock, 1); },
      window,
      window,
      [&](OverloadController& c) { c.OnFree(300, lock, 1); },
      [](OverloadController& c) { c.OnTaskFreed(300); },
      [&](OverloadController& c) { c.OnWaitEnd(200, lock); },
      [](OverloadController& c) { c.OnRequestEnd(200, 900, 0, 0); },
      [](OverloadController& c) { c.OnTaskFreed(200); },
      window,
  };
  for (const Step& step : script) {
    step(audit);
    step(twin.runtime);
    clock.Advance(Millis(40));
  }

  // The script did what it says: a cancel of 100, its re-execution as
  // non-cancellable (§4), and a request restart.
  ASSERT_FALSE(twin.cancelled.empty());
  EXPECT_EQ(twin.cancelled.front().first, 100u);
  const TaskRecord* twin_task = twin.runtime.FindTask(100);
  const TaskRecord* audited_task = audited.runtime.FindTask(100);
  ASSERT_NE(twin_task, nullptr);
  ASSERT_NE(audited_task, nullptr);
  EXPECT_FALSE(twin_task->cancellable);
  EXPECT_EQ(twin.runtime.stats().request_restarts, 1u);
  EXPECT_EQ(audited_task->cancellable, twin_task->cancellable);
  EXPECT_EQ(audited_task->Progress(0), twin_task->Progress(0));
  EXPECT_EQ(audited.cancelled, twin.cancelled);
  const std::string jsonl = EventsToJsonl(twin.recorder.Snapshot());
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(EventsToJsonl(audited.recorder.Snapshot()), jsonl);
  EXPECT_EQ(audit.dropped_frees(), 0u);
}

}  // namespace
}  // namespace atropos
