// Tests for the span tracer: nesting/parenting across parallel_for
// workers, event ordering, the span's histogram sample, and Chrome
// trace-event JSON well-formedness.
#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace longtail::util {
namespace {

// Enables in-memory tracing for one test and restores the disabled
// default afterwards so the rest of the suite runs uninstrumented.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(true);
    trace::reset_for_testing();
  }
  void TearDown() override {
    trace::reset_for_testing();
    trace::set_enabled(false);
    metrics::set_enabled(false);
    metrics::reset_for_testing();
    set_global_threads(ThreadPool::default_threads());
  }
};

const trace::Event* find_event(const std::vector<trace::Event>& events,
                               const std::string& name) {
  for (const auto& e : events)
    if (e.name == name) return &e;
  return nullptr;
}

TEST_F(TraceTest, RecordsSpanWithDuration) {
  { LONGTAIL_TRACE_SPAN("unit.single"); }
  const auto events = trace::snapshot_for_testing();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.single");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_GT(events[0].id, 0u);
}

TEST_F(TraceTest, NestedSpansFormParentChain) {
  {
    trace::Span a("unit.a");
    {
      trace::Span b("unit.b");
      trace::Span c("unit.c");
      (void)b;
      (void)c;
    }
  }
  const auto events = trace::snapshot_for_testing();
  ASSERT_EQ(events.size(), 3u);
  const auto* a = find_event(events, "unit.a");
  const auto* b = find_event(events, "unit.b");
  const auto* c = find_event(events, "unit.c");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(a->parent, 0u);
  EXPECT_EQ(b->parent, a->id);
  EXPECT_EQ(c->parent, b->id);
  // Snapshot is sorted by start time: outermost first.
  EXPECT_EQ(events[0].name, "unit.a");
}

TEST_F(TraceTest, WorkerSpansInheritSubmittingSpanAsParent) {
  set_global_threads(4);
  constexpr std::size_t kIterations = 64;
  std::uint64_t outer_id = 0;
  {
    trace::Span outer("unit.outer");
    outer_id = trace::current_span();
    parallel_for(kIterations, [](std::size_t) {
      LONGTAIL_TRACE_SPAN("unit.inner");
    });
  }
  ASSERT_NE(outer_id, 0u);
  const auto events = trace::snapshot_for_testing();
  std::size_t inner = 0;
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) {
    if (e.name != "unit.inner") continue;
    ++inner;
    EXPECT_EQ(e.parent, outer_id)
        << "worker span must nest below the span that launched the loop";
    tids.push_back(e.tid);
  }
  EXPECT_EQ(inner, kIterations);
  // Spans were recorded from more than one thread (pool has 4 workers and
  // the caller participates), yet all share the same parent.
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_GE(tids.size(), 1u);
}

TEST_F(TraceTest, SnapshotOrderedByStartTime) {
  { LONGTAIL_TRACE_SPAN("unit.first"); }
  { LONGTAIL_TRACE_SPAN("unit.second"); }
  { LONGTAIL_TRACE_SPAN("unit.third"); }
  const auto events = trace::snapshot_for_testing();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
    if (events[i - 1].start_ns == events[i].start_ns) {
      EXPECT_LT(events[i - 1].id, events[i].id);
    }
  }
}

// Tracing and metrics both on: one span scope is one event and one
// histogram sample, and both carry the same duration.
TEST_F(TraceTest, SpanFeedsTraceAndHistogramFromOneDuration) {
  metrics::set_enabled(true);
  auto& hist = metrics::histogram("unit.timed_ms");
  { LONGTAIL_TRACE_SPAN("unit.timed"); }
  const auto events = trace::snapshot_for_testing();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(hist.count(), 1u);
  const double event_ms = static_cast<double>(events[0].dur_ns) / 1e6;
  EXPECT_NEAR(hist.sum_ms(), event_ms, 1e-3);
}

// Tracing and metrics both off: a span records neither an event nor a
// histogram sample.
TEST_F(TraceTest, DisabledMacroRecordsNothing) {
  trace::set_enabled(false);
  metrics::set_enabled(false);
  { LONGTAIL_TRACE_SPAN("unit.ghost"); }
  trace::instant("unit.ghost_instant");
  EXPECT_TRUE(trace::snapshot_for_testing().empty());
  EXPECT_EQ(metrics::histogram("unit.ghost_ms").count(), 0u);
}

TEST_F(TraceTest, RenderedTraceJsonIsWellFormed) {
  set_global_threads(2);
  {
    trace::Span outer("json.outer", "detail with \"quotes\"\nand newline");
    parallel_for(16, [](std::size_t) { LONGTAIL_TRACE_SPAN("json.inner"); });
    trace::instant("json.marker");
  }
  const std::string json = trace::render_json();
  util::json::Value doc;
  ASSERT_NO_THROW(doc = util::json::parse(json)) << json;
  // The escaped detail reads back as the original string.
  const util::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found_outer = false;
  for (const util::json::Value& e : events->arr) {
    const util::json::Value* args = e.find("args");
    if (e.find("name")->str_or("") != "json.outer" || args == nullptr)
      continue;
    found_outer = true;
    EXPECT_EQ(args->find("detail")->str_or(""),
              "detail with \"quotes\"\nand newline");
  }
  EXPECT_TRUE(found_outer);
  // Structural spot checks on the trace-event schema.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("json.outer"), std::string::npos);
  EXPECT_NE(json.find("json.inner"), std::string::npos);
}

}  // namespace
}  // namespace longtail::util
