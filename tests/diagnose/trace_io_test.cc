// JSONL trace codec: EventToJson → ParseEventsJsonl must be lossless for
// every event kind, including full-width u64 keys, escaped strings, and the
// nested resource/candidate arrays; malformed documents are rejected with
// 1-based line numbers.

#include "src/diagnose/trace_io.h"

#include <gtest/gtest.h>

#include "src/obs/export.h"

namespace atropos {
namespace {

std::vector<FlightEvent> SampleEvents() {
  std::vector<FlightEvent> events;

  FlightEvent window;
  window.seq = 1;
  window.time = 100000;
  window.kind = ObsEventKind::kWindowClosed;
  window.value = 2416.5;
  window.label = "suspected_overload";
  window.completions = 120;
  window.overdue = 3;
  events.push_back(window);

  FlightEvent snapshot;
  snapshot.seq = 2;
  snapshot.time = 100000;
  snapshot.kind = ObsEventKind::kContentionSnapshot;
  ObsResourceSample lock;
  lock.id = 1;
  lock.name = "table_locks";
  lock.cls = "lock";
  lock.contention_raw = 7.25;
  lock.contention_norm = 0.875;
  lock.delay_us = 900000;
  lock.overloaded = true;
  snapshot.resources.push_back(lock);
  ObsResourceSample pool;
  pool.id = 2;
  pool.name = "buffer \"pool\"\n";  // exercises string escaping
  pool.cls = "memory";
  pool.delay_us = 0;
  snapshot.resources.push_back(pool);
  events.push_back(snapshot);

  FlightEvent decision;
  decision.seq = 3;
  decision.time = 100001;
  decision.kind = ObsEventKind::kPolicyDecision;
  decision.label = "victim_selected";
  ObsCandidateSample candidate;
  candidate.key = 0xfedcba9876543210ull;  // above 2^53: must not round-trip through double
  candidate.cancellable = true;
  candidate.pareto = true;
  candidate.score = 0.5;
  candidate.gains = {0.25, 0.75};
  decision.candidates.push_back(candidate);
  events.push_back(decision);

  FlightEvent cancel;
  cancel.seq = 4;
  cancel.time = 100002;
  cancel.kind = ObsEventKind::kCancelIssued;
  cancel.key = 0xfedcba9876543210ull;
  cancel.label = "dump_query";
  events.push_back(cancel);

  return events;
}

TEST(TraceIoTest, JsonlRoundTripIsLossless) {
  std::vector<FlightEvent> events = SampleEvents();
  std::string jsonl;
  for (const FlightEvent& ev : events) {
    jsonl += EventToJson(ev);
    jsonl += '\n';
  }
  auto parsed = ParseEventsJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), events.size());
  for (size_t i = 0; i < events.size(); i++) {
    // Re-serializing the parsed event must reproduce the original line —
    // field-by-field equality expressed as one string compare.
    EXPECT_EQ(EventToJson(parsed.value()[i]), EventToJson(events[i])) << "event " << i;
  }
  // The full-width key survived exactly.
  EXPECT_EQ(parsed.value()[3].key, 0xfedcba9876543210ull);
  EXPECT_EQ(parsed.value()[2].candidates[0].key, 0xfedcba9876543210ull);
}

TEST(TraceIoTest, BlankLinesAndCrlfAreTolerated) {
  std::string jsonl = "\n" + EventToJson(SampleEvents()[0]) + "\r\n\n";
  auto parsed = ParseEventsJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().size(), 1u);
}

TEST(TraceIoTest, UnknownKeysAreSkipped) {
  auto parsed = ParseEventsJsonl(
      R"({"seq":9,"t_us":5,"kind":"window_closed","future_field":{"nested":[1,2,{"a":true}]},"value":10})"
      "\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].seq, 9u);
  EXPECT_EQ(parsed.value()[0].kind, ObsEventKind::kWindowClosed);
  EXPECT_DOUBLE_EQ(parsed.value()[0].value, 10.0);
}

TEST(TraceIoTest, MalformedLinesReportLineNumbers) {
  struct Case {
    const char* text;
    const char* expect;
  };
  const Case cases[] = {
      {"{\"seq\":1,\"kind\":\"window_closed\"}\nnot json\n", "line 2"},
      {"{\"seq\":1,\"kind\":\"no_such_kind\"}\n", "line 1"},
      {"{\"seq\":1\n", "line 1"},
      {"[]\n", "line 1"},
      // A 21-digit key or stamp does not saturate to 2^64-1.
      {"{\"seq\":1,\"kind\":\"window_closed\"}\n"
       "{\"seq\":2,\"kind\":\"window_closed\",\"key\":100000000000000000000}\n",
       "line 2: unsigned integer out of range"},
      {"{\"seq\":1,\"kind\":\"window_closed\",\"t_us\":999999999999999999999}\n",
       "line 1: unsigned integer out of range"},
      // A resource id past 2^32-1 does not wrap to resource 1.
      {"{\"seq\":1,\"kind\":\"contention_snapshot\",\"resources\":[{\"id\":4294967297}]}\n",
       "line 1: resource id out of range"},
  };
  for (const Case& c : cases) {
    auto parsed = ParseEventsJsonl(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_NE(parsed.status().message().find(c.expect), std::string::npos)
        << parsed.status().message();
  }
}

TEST(TraceIoTest, EventKindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(ObsEventKind::kTaskDropped); k++) {
    ObsEventKind kind = static_cast<ObsEventKind>(k);
    ObsEventKind back;
    ASSERT_TRUE(ParseObsEventKind(ObsEventKindName(kind), &back))
        << ObsEventKindName(kind);
    EXPECT_EQ(back, kind);
  }
  ObsEventKind out;
  EXPECT_FALSE(ParseObsEventKind("definitely_not_a_kind", &out));
}

}  // namespace
}  // namespace atropos
