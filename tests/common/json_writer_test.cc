#include "src/common/json_writer.h"

#include <gtest/gtest.h>

namespace atropos {
namespace {

// The one escaper behind the trace JSONL, BENCH_*.json and atropos_lint
// --json: the named escapes, \u00XX for other control bytes, and every other
// byte (UTF-8 included) copied as is.
TEST(JsonWriterTest, AppendJsonStringEscapes) {
  constexpr char kRaw[] = "a\"b\\c\nd\te\rf\x01g\x1f\xc3\xa9";
  std::string out = "x=";
  AppendJsonString(out, std::string_view(kRaw, sizeof(kRaw) - 1));
  EXPECT_EQ(out, "x=\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001f\xc3\xa9\"");
}

TEST(JsonWriterTest, WriterEscapesKeysAndStrings) {
  JsonWriter w;
  w.BeginObject().Field("na\"me", "v\\1").Field("n", 3).EndObject();
  EXPECT_EQ(w.str(), "{\n  \"na\\\"me\": \"v\\\\1\",\n  \"n\": 3\n}");
}

}  // namespace
}  // namespace atropos
