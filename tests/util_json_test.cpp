// Tests for the JSON module: the strict parser's grammar and its typed
// rejection of hostile input, the escaper, the object writer's byte
// format, and round-trips through the emitters that use them.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "bench/bench_common.hpp"
#include "tests/scoped_env.hpp"
#include "util/metrics.hpp"

namespace longtail::util::json {
namespace {

// `parse(text)` must throw std::runtime_error whose message names `what`.
void expect_rejected(std::string_view text, std::string_view what) {
  try {
    (void)parse(text);
    ADD_FAILURE() << "accepted: " << text.substr(0, 64);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string_view(e.what()).find(what), std::string_view::npos)
        << e.what();
  }
}

TEST(Json, ParsesEveryValueKind) {
  const Value doc = parse(
      " {\"n\": -12.5e+2, \"i\": 18446744073709551615, \"s\": \"a\\u0041\\/\","
      " \"t\": true, \"f\": false, \"z\": null, \"a\": [1, [], {}]}\n");
  ASSERT_EQ(doc.kind, Value::kObj);
  EXPECT_DOUBLE_EQ(doc.find("n")->num, -1250.0);
  EXPECT_EQ(doc.find("n")->str, "-12.5e+2");
  // The literal text keeps integers a double cannot hold exactly.
  EXPECT_EQ(doc.find("i")->str, "18446744073709551615");
  EXPECT_EQ(doc.find("s")->str, "aA/");
  EXPECT_TRUE(doc.find("t")->b);
  EXPECT_EQ(doc.find("f")->kind, Value::kBool);
  EXPECT_EQ(doc.find("z")->kind, Value::kNull);
  ASSERT_EQ(doc.find("a")->arr.size(), 3u);
  EXPECT_EQ(doc.find("a")->arr[2].kind, Value::kObj);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, RejectsMillionDeepNesting) {
  expect_rejected(std::string(1'000'000, '['), "nesting too deep");
  expect_rejected(std::string(1'000'000, '{'), "at offset");
}

TEST(Json, NestingLimitIsExact) {
  const std::string ok =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_NO_THROW((void)parse(ok));
  const std::string deep =
      std::string(kMaxDepth + 1, '[') + std::string(kMaxDepth + 1, ']');
  expect_rejected(deep, "nesting too deep");
}

TEST(Json, RejectsTrailingBytes) {
  expect_rejected("{\"a\": 1} x", "trailing bytes");
  expect_rejected("[1]]", "trailing bytes");
  expect_rejected("1 2", "trailing bytes");
  expect_rejected("{\"traceEvents\": []}{}", "trailing bytes");
}

TEST(Json, RejectsBadUnicodeEscapes) {
  expect_rejected("\"a\\uZZZZb\"", "bad \\u escape");
  expect_rejected("\"\\u12\"", "bad \\u escape");
  expect_rejected("\"\\u00", "bad \\u escape");
  expect_rejected("\"\\x41\"", "bad escape");
}

TEST(Json, RejectsNumbersOutsideTheGrammar) {
  for (const char* text : {"inf", "-inf", "nan", "NaN", "0x10", "+1", "01",
                           "1.", ".5", "1e", "1e+", "-", "--1"})
    expect_rejected(text, "at offset");
  // Valid grammar, but not a finite double.
  expect_rejected("1e999", "number out of range");
}

TEST(Json, RejectsUnterminatedStrings) {
  expect_rejected("\"abc", "unterminated string");
  expect_rejected("{\"a\": \"b", "unterminated string");
  expect_rejected("\"a\\", "bad escape");
}

TEST(Json, RejectsRawControlBytesInStrings) {
  expect_rejected("\"tab\there\"", "control character");
  expect_rejected(std::string("\"nul\0\"", 6), "control character");
}

TEST(Json, ErrorsCarryTheByteOffset) {
  expect_rejected("[1, 2, x]", "at offset 7");
  expect_rejected("", "unexpected end at offset 0");
}

TEST(Json, ObjectWriterKeepsTheByteFormat) {
  const std::string out = Object()
                              .field("d", 0.875)
                              .field("big", 123456.789)
                              .field("u", std::uint64_t{7})
                              .field("n", 3u)
                              .field("b", true)
                              .field("s", std::string_view("x"))
                              .raw("r", "[1, 2]")
                              .str();
  EXPECT_EQ(out,
            "{\"d\": 0.875, \"big\": 123457, \"u\": 7, \"n\": 3, "
            "\"b\": true, \"s\": \"x\", \"r\": [1, 2]}");
  EXPECT_EQ(Object().str(), "{}");
}

TEST(Json, EscaperRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  all += '\0';
  std::string quoted = "\"";
  append_escaped(quoted, all);
  quoted += '"';
  EXPECT_EQ(quoted.find('\n'), std::string::npos);
  EXPECT_NE(quoted.find("\\u001f"), std::string::npos);
  EXPECT_EQ(parse(quoted).str, all);
  // Keys are escaped as well.
  const Value doc = parse(Object().field(all, all).str());
  ASSERT_EQ(doc.obj.size(), 1u);
  EXPECT_EQ(doc.obj[0].first, all);
  EXPECT_EQ(doc.obj[0].second.str, all);
}

TEST(Json, RunManifestRoundTripsHostileEnvironmentValues) {
  const std::string note = "quote\" backslash\\ tab\t newline\n end";
  const test::ScopedEnv env("LONGTAIL_NOTE", note.c_str());
  const Value run = parse(bench::run_manifest_json(0.02));
  const Value* value = run.find("env")->find("LONGTAIL_NOTE");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->str, note);
}

TEST(Json, MetricsSnapshotRoundTripsQuotedNames) {
  metrics::counter("a\"b").add(3);
  metrics::gauge("tab\tgauge").set(1.5);
  const Value snap = parse(metrics::snapshot_json());
  const Value* counter = snap.find("counters")->find("a\"b");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->str, "3");
  const Value* gauge = snap.find("gauges")->find("tab\tgauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->num, 1.5);
  metrics::reset_for_testing();
}

}  // namespace
}  // namespace longtail::util::json
