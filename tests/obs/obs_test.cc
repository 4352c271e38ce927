// Tests for src/obs: registry snapshots, flight-recorder ring semantics,
// exporter golden outputs, and an end-to-end c1 run asserting the trace
// names the backup culprit.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/workload/cases.h"

namespace atropos {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, CountersGaugesHistogramsSnapshot) {
  MetricsRegistry registry;
  Counter* reqs = registry.GetCounter("app.requests");
  reqs->Inc();
  reqs->Inc(4);
  registry.GetGauge("app.load")->Set(0.75);
  registry.GetGauge("app.load")->Add(0.25);
  LatencyHistogram* lat = registry.GetHistogram("app.latency");
  for (TimeMicros v : {100, 200, 300, 400, 500}) {
    lat->Record(v);
  }

  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("app.requests"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("app.load"), 1.0);
  const auto& view = snap.histograms.at("app.latency");
  EXPECT_EQ(view.count, 5u);
  EXPECT_EQ(view.max, 500);
  EXPECT_DOUBLE_EQ(view.mean, 300.0);
  EXPECT_EQ(registry.instrument_count(), 3u);
}

TEST(MetricsRegistryTest, PointersAreStableAcrossResolves) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  // Force rebalancing of the name map with many other instruments.
  for (int i = 0; i < 100; i++) {
    registry.GetCounter("pad." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("x"), a);
  a->Inc(7);
  EXPECT_EQ(registry.TakeSnapshot().counters.at("x"), 7u);
}

TEST(MetricsRegistryTest, SnapshotIsACopy) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Inc();
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  registry.GetCounter("c")->Inc(10);
  EXPECT_EQ(snap.counters.at("c"), 1u);
  EXPECT_EQ(registry.TakeSnapshot().counters.at("c"), 11u);
}

TEST(SeriesRecorderTest, RowsMatchColumns) {
  SeriesRecorder series({"a", "b"});
  series.Sample(Millis(50), {1.0, 2.0});
  series.Sample(Millis(100), {3.0, 4.0});
  ASSERT_EQ(series.rows().size(), 2u);
  EXPECT_EQ(series.rows()[1].time, Millis(100));
  EXPECT_DOUBLE_EQ(series.rows()[1].values[1], 4.0);
  series.Clear();
  EXPECT_TRUE(series.rows().empty());
}

// ---------------------------------------------------------------------------
// Flight recorder ring buffer.

FlightEvent Event(ObsEventKind kind, TimeMicros t, const std::string& label = "") {
  FlightEvent ev;
  ev.kind = kind;
  ev.time = t;
  ev.label = label;
  return ev;
}

TEST(FlightRecorderTest, RecordsInOrder) {
  FlightRecorder recorder(8);
  recorder.Record(Event(ObsEventKind::kRunStart, 0));
  recorder.Record(Event(ObsEventKind::kWindowClosed, 50));
  recorder.Record(Event(ObsEventKind::kRunEnd, 100));
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, ObsEventKind::kRunStart);
  EXPECT_EQ(events[2].kind, ObsEventKind::kRunEnd);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(recorder.overwritten(), 0u);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestInOrder) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 11; i++) {
    recorder.Record(Event(ObsEventKind::kWindowClosed, i * 10));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 11u);
  EXPECT_EQ(recorder.overwritten(), 7u);
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: seqs 7, 8, 9, 10.
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].seq, 7 + i);
    EXPECT_EQ(events[i].time, static_cast<TimeMicros>((7 + i) * 10));
  }
}

TEST(FlightRecorderTest, DisabledRecordIsANoOp) {
  FlightRecorder recorder(4);
  recorder.set_enabled(false);
  recorder.Record(Event(ObsEventKind::kRunStart, 0));
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  recorder.set_enabled(true);
  recorder.Record(Event(ObsEventKind::kRunStart, 0));
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(FlightRecorderTest, AnnotateLastFillsEmptyLabelOfNewestMatch) {
  FlightRecorder recorder(8);
  recorder.Record(Event(ObsEventKind::kCancelIssued, 10));
  recorder.Record(Event(ObsEventKind::kWindowClosed, 20, "normal"));
  recorder.Record(Event(ObsEventKind::kCancelIssued, 30));
  recorder.AnnotateLast(ObsEventKind::kCancelIssued, "backup");
  std::vector<FlightEvent> events = recorder.Snapshot();
  EXPECT_EQ(events[0].label, "");        // older cancel untouched
  EXPECT_EQ(events[2].label, "backup");  // newest cancel annotated
  // A second annotation must not overwrite the existing label.
  recorder.AnnotateLast(ObsEventKind::kCancelIssued, "scan");
  EXPECT_EQ(recorder.Snapshot()[2].label, "backup");
}

TEST(FlightRecorderTest, AnnotateLastWorksAcrossWraparound) {
  FlightRecorder recorder(3);
  for (int i = 0; i < 5; i++) {
    recorder.Record(Event(ObsEventKind::kWindowClosed, i));
  }
  recorder.Record(Event(ObsEventKind::kCancelIssued, 99));
  recorder.AnnotateLast(ObsEventKind::kCancelIssued, "victim");
  std::vector<FlightEvent> events = recorder.Snapshot();
  EXPECT_EQ(events.back().label, "victim");
}

TEST(FlightRecorderTest, ClearResetsCounters) {
  FlightRecorder recorder(2);
  recorder.Record(Event(ObsEventKind::kRunStart, 0));
  recorder.Record(Event(ObsEventKind::kRunEnd, 1));
  recorder.Record(Event(ObsEventKind::kRunStart, 2));
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.overwritten(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

// The capacity is a bound, not a built ring: a large recorder holding a few
// events reports the bound, the events actually held, and them oldest first.
TEST(FlightRecorderTest, LargeBoundHoldsOnlyWhatWasRecorded) {
  FlightRecorder recorder(1 << 20);
  for (int i = 0; i < 3; i++) {
    recorder.Record(Event(ObsEventKind::kWindowClosed, i));
  }
  EXPECT_EQ(recorder.capacity(), 1u << 20);
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.overwritten(), 0u);
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].seq, i);
  }
}

TEST(FlightRecorderTest, ClearThenWrapAgainKeepsOrder) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 6; i++) {
    recorder.Record(Event(ObsEventKind::kWindowClosed, i));
  }
  recorder.Clear();
  for (int i = 0; i < 9; i++) {
    recorder.Record(Event(ObsEventKind::kWindowClosed, 100 + i));
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 9u);
  EXPECT_EQ(recorder.overwritten(), 5u);
  // Seqs restart at 0 after Clear(); the newest four are 5..8, oldest first.
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].seq, 5 + i);
    EXPECT_EQ(events[i].time, static_cast<TimeMicros>(105 + i));
  }
}

TEST(FlightRecorderTest, AnnotateLastAfterClearOnPartlyFilledRing) {
  FlightRecorder recorder(8);
  for (int i = 0; i < 10; i++) {
    recorder.Record(Event(ObsEventKind::kCancelIssued, i));
  }
  recorder.Clear();
  recorder.Record(Event(ObsEventKind::kCancelIssued, 0));
  recorder.Record(Event(ObsEventKind::kWindowClosed, 1));
  recorder.AnnotateLast(ObsEventKind::kCancelIssued, "victim");
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].label, "victim");
  EXPECT_EQ(events[1].label, "");
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ExportTest, EventToJsonGolden) {
  FlightEvent ev;
  ev.seq = 3;
  ev.time = 1500000;
  ev.kind = ObsEventKind::kPolicyDecision;
  ev.key = 42;
  ev.value = 0.25;
  ev.label = "victim_selected";
  ObsCandidateSample cand;
  cand.key = 42;
  cand.cancellable = true;
  cand.pareto = true;
  cand.score = 0.25;
  cand.gains = {0.25, 0.0};
  ev.candidates.push_back(cand);
  EXPECT_EQ(EventToJson(ev),
            "{\"seq\":3,\"t_us\":1500000,\"kind\":\"policy_decision\",\"key\":42,"
            "\"value\":0.25,\"label\":\"victim_selected\","
            "\"candidates\":[{\"key\":42,\"cancellable\":true,\"pareto\":true,"
            "\"score\":0.25,\"gains\":[0.25,0]}]}");
}

TEST(ExportTest, EventToJsonResourcesAndEscaping) {
  FlightEvent ev;
  ev.seq = 0;
  ev.time = 0;
  ev.kind = ObsEventKind::kContentionSnapshot;
  ev.label = "a\"b\\c\nd";
  ObsResourceSample res;
  res.id = 1;
  res.name = "buffer_pool";
  res.cls = "memory";
  res.contention_raw = 1.5;
  res.contention_norm = 0.8;
  res.delay_us = 200;
  res.overloaded = true;
  ev.resources.push_back(res);
  EXPECT_EQ(EventToJson(ev),
            "{\"seq\":0,\"t_us\":0,\"kind\":\"contention_snapshot\","
            "\"label\":\"a\\\"b\\\\c\\nd\","
            "\"resources\":[{\"id\":1,\"name\":\"buffer_pool\",\"cls\":\"memory\","
            "\"c_raw\":1.5,\"c_norm\":0.8,\"delay_us\":200,\"overloaded\":true}]}");
}

TEST(ExportTest, EventsToJsonlOneLinePerEvent) {
  std::vector<FlightEvent> events;
  events.push_back(Event(ObsEventKind::kRunStart, 0));
  events.push_back(Event(ObsEventKind::kRunEnd, 10));
  std::string jsonl = EventsToJsonl(events);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"kind\":\"run_start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"run_end\""), std::string::npos);
}

TEST(ExportTest, SeriesToCsvGolden) {
  SeriesRecorder series({"completed", "p99_ms"});
  series.Sample(Millis(50), {120.0, 3.5});
  series.Sample(Millis(100), {240.0, 4.25});
  EXPECT_EQ(SeriesToCsv(series),
            "time_s,completed,p99_ms\n"
            "0.050,120,3.5\n"
            "0.100,240,4.25\n");
}

TEST(ExportTest, SeriesPathFor) {
  EXPECT_EQ(SeriesPathFor("out.jsonl"), "out.csv");
  EXPECT_EQ(SeriesPathFor("out"), "out.csv");
  EXPECT_EQ(SeriesPathFor("dir.d/trace"), "dir.d/trace.csv");
}

TEST(ExportTest, PostMortemListsDecisionsAndMetrics) {
  FlightEvent cancel = Event(ObsEventKind::kCancelIssued, Seconds(3), "backup");
  cancel.key = 7;
  MetricsRegistry registry;
  registry.GetCounter("minidb.outcome.cancelled")->Inc(2);
  std::string text = RenderPostMortem({cancel}, registry.TakeSnapshot());
  EXPECT_NE(text.find("cancel_issued"), std::string::npos);
  EXPECT_NE(text.find("backup"), std::string::npos);
  EXPECT_NE(text.find("minidb.outcome.cancelled"), std::string::npos);
}

TEST(ObsCliTest, ParsesTraceAndCase) {
  char arg0[] = "bench";
  char arg1[] = "--trace=/tmp/t.jsonl";
  char arg2[] = "--case=7";
  char* argv[] = {arg0, arg1, arg2, nullptr};
  ObsCliArgs cli = ParseObsCli(3, argv);
  EXPECT_TRUE(cli.ok);
  EXPECT_EQ(cli.trace_path, "/tmp/t.jsonl");
  EXPECT_EQ(cli.case_id, 7);
}

TEST(ObsCliTest, RejectsUnknownFlag) {
  char arg0[] = "bench";
  char arg1[] = "--frobnicate";
  char* argv[] = {arg0, arg1, nullptr};
  ObsCliArgs cli = ParseObsCli(2, argv);
  EXPECT_FALSE(cli.ok);
  EXPECT_FALSE(cli.error.empty());
}

// ---------------------------------------------------------------------------
// Integration: case c1 (MySQL backup lock convoy) under Atropos must leave a
// trace whose cancellation events name the backup culprit.

TEST(ObsIntegrationTest, C1TraceNamesBackupCulprit) {
  Observability obs;
  CaseRunOptions opt;
  opt.controller = ControllerKind::kAtropos;
  opt.obs = &obs;
  opt.post_mortem = false;
  CaseResult result = RunCase(1, opt);
  ASSERT_GT(result.controller_actions, 0u) << "c1 should trigger cancellations";

  std::vector<FlightEvent> events = obs.recorder.Snapshot();
  auto has = [&events](ObsEventKind kind) {
    return std::any_of(events.begin(), events.end(),
                       [kind](const FlightEvent& ev) { return ev.kind == kind; });
  };
  EXPECT_TRUE(has(ObsEventKind::kRunStart));
  EXPECT_TRUE(has(ObsEventKind::kRunEnd));
  EXPECT_TRUE(has(ObsEventKind::kWindowClosed));
  EXPECT_TRUE(has(ObsEventKind::kOverloadEntered));
  EXPECT_TRUE(has(ObsEventKind::kContentionSnapshot));
  EXPECT_TRUE(has(ObsEventKind::kPolicyDecision));

  bool backup_cancelled = std::any_of(
      events.begin(), events.end(), [](const FlightEvent& ev) {
        return ev.kind == ObsEventKind::kCancelIssued && ev.label == "backup";
      });
  EXPECT_TRUE(backup_cancelled) << "no cancel_issued event labelled 'backup'";

  // Per-app metrics were maintained through the same run.
  MetricsRegistry::Snapshot snap = obs.metrics.TakeSnapshot();
  EXPECT_GE(snap.counters.at("minidb.requests.backup"), 1u);
  EXPECT_GE(snap.counters.at("minidb.outcome.cancelled"), 1u);

  // And the per-tick series is exportable.
  EXPECT_FALSE(obs.series.rows().empty());
  std::string csv = SeriesToCsv(obs.series);
  EXPECT_EQ(csv.rfind("time_s,completed,cancelled,dropped,p99_ms\n", 0), 0u);
}

}  // namespace
}  // namespace atropos
