// Golden tests for the offline trace analyzer: a synthetic trace with a
// known critical path, self-time split, and parallel efficiency, plus
// parser robustness and an end-to-end run over a real rendered trace.
#include "util/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::util {
namespace {

namespace ta = trace_analysis;

// Synthetic trace, times in us (the trace-event unit). One main thread
// and one worker:
//
//   phase.load  [0, 10ms)    — leaf, main
//   phase.build [10, 50ms)   — main; children:
//     build.index [12, 20ms)   — leaf, main
//     pool.task   [14, 44ms)   — worker slice under phase.build
//   (phase.build tail after last child: 50 - 44 = 6ms)
//
// Critical path: phase.build (finishes last at 50) -> pool.task (its
// last-finishing child, end 44).
// phase.build efficiency: busy = 40 + 30 = 70ms over wall 40ms x 2 lanes
// = 0.875.
const char* kSyntheticTrace = R"({"displayTimeUnit": "ms", "traceEvents": [
{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "longtail"}},
{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
 "args": {"name": "main-0"}},
{"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
 "args": {"name": "worker-1"}},
{"name": "phase.load", "ph": "X", "ts": 0, "dur": 10000, "pid": 0,
 "tid": 0, "args": {"id": 1, "parent": 0}},
{"name": "phase.build", "ph": "X", "ts": 10000, "dur": 40000, "pid": 0,
 "tid": 0, "args": {"id": 2, "parent": 0, "cpu_ms": 12.5}},
{"name": "build.index", "ph": "X", "ts": 12000, "dur": 8000, "pid": 0,
 "tid": 0, "args": {"id": 3, "parent": 2}},
{"name": "pool.task", "ph": "X", "ts": 14000, "dur": 30000, "pid": 0,
 "tid": 1, "args": {"id": 4, "parent": 2}},
{"name": "profile.rss_mb", "ph": "C", "ts": 5000, "pid": 0, "tid": 0,
 "args": {"value": 100.5}},
{"name": "profile.rss_mb", "ph": "C", "ts": 45000, "pid": 0, "tid": 0,
 "args": {"value": 140.25}}
]})";

TEST(TraceAnalysis, ComputesCriticalPathThroughCrossThreadSpans) {
  const auto report = ta::analyze(kSyntheticTrace);
  EXPECT_EQ(report.span_count, 4u);
  EXPECT_EQ(report.thread_count, 2u);
  EXPECT_EQ(report.worker_count, 1u);
  EXPECT_DOUBLE_EQ(report.wall_ms, 50.0);

  ASSERT_EQ(report.critical_path.size(), 2u);
  EXPECT_EQ(report.critical_path[0].name, "phase.build");
  EXPECT_DOUBLE_EQ(report.critical_path[0].dur_ms, 40.0);
  EXPECT_DOUBLE_EQ(report.critical_path[0].tail_ms, 6.0);
  EXPECT_EQ(report.critical_path[1].name, "pool.task");
  EXPECT_EQ(report.critical_path[1].tid, 1u);
  EXPECT_DOUBLE_EQ(report.critical_path[1].tail_ms, 30.0);
}

TEST(TraceAnalysis, SplitsSelfTimeFromChildTime) {
  const auto report = ta::analyze(kSyntheticTrace);
  const ta::NameStat* build = nullptr;
  const ta::NameStat* task = nullptr;
  for (const auto& h : report.hotspots) {
    if (h.name == "phase.build") build = &h;
    if (h.name == "pool.task") task = &h;
  }
  ASSERT_NE(build, nullptr);
  ASSERT_NE(task, nullptr);
  EXPECT_DOUBLE_EQ(build->total_ms, 40.0);
  // 40 total minus children 8 + 30.
  EXPECT_DOUBLE_EQ(build->self_ms, 2.0);
  EXPECT_DOUBLE_EQ(build->cpu_ms, 12.5);
  EXPECT_DOUBLE_EQ(task->self_ms, 30.0);
  EXPECT_LT(task->cpu_ms, 0) << "no cpu_ms recorded for this span name";
  // Hotspots are ordered by self time: the worker slice dominates.
  EXPECT_EQ(report.hotspots.front().name, "pool.task");
}

TEST(TraceAnalysis, ComputesPhaseEfficiencyFromWorkerBusy) {
  const auto report = ta::analyze(kSyntheticTrace);
  ASSERT_EQ(report.phases.size(), 2u);  // time order
  EXPECT_EQ(report.phases[0].name, "phase.load");
  EXPECT_DOUBLE_EQ(report.phases[0].busy_ms, 10.0);
  // Serial leaf on 2 lanes: 10 / (10 * 2).
  EXPECT_DOUBLE_EQ(report.phases[0].efficiency, 0.5);
  EXPECT_EQ(report.phases[1].name, "phase.build");
  EXPECT_DOUBLE_EQ(report.phases[1].busy_ms, 70.0);
  EXPECT_DOUBLE_EQ(report.phases[1].efficiency, 70.0 / (40.0 * 2.0));
}

TEST(TraceAnalysis, SummarizesCounterSeries) {
  const auto report = ta::analyze(kSyntheticTrace);
  ASSERT_EQ(report.counters.size(), 1u);
  EXPECT_EQ(report.counters[0].name, "profile.rss_mb");
  EXPECT_EQ(report.counters[0].samples, 2u);
  EXPECT_DOUBLE_EQ(report.counters[0].min, 100.5);
  EXPECT_DOUBLE_EQ(report.counters[0].max, 140.25);
  EXPECT_DOUBLE_EQ(report.counters[0].last, 140.25);
}

TEST(TraceAnalysis, RendersMarkdownAndJson) {
  const auto report = ta::analyze(kSyntheticTrace);
  const std::string md = ta::render_markdown(report);
  EXPECT_NE(md.find("## Critical path"), std::string::npos);
  EXPECT_NE(md.find("phase.build"), std::string::npos);
  EXPECT_NE(md.find("## Phases (parallel efficiency)"), std::string::npos);
  EXPECT_NE(md.find("0.88"), std::string::npos);  // 0.875 rounded

  const std::string json = ta::render_json(report);
  EXPECT_NE(json.find("\"critical_path\": ["), std::string::npos);
  EXPECT_NE(json.find("\"efficiency\": 0.875"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\": 50"), std::string::npos);
}

TEST(TraceAnalysis, RejectsMalformedInput) {
  EXPECT_THROW(ta::analyze("not json"), std::runtime_error);
  EXPECT_THROW(ta::analyze("{\"noTraceEvents\": 1}"), std::runtime_error);
  EXPECT_THROW(ta::analyze("{\"traceEvents\": [{\"unterminated"),
               std::runtime_error);
  // Hostile documents: each is a typed error, never a crash or a report
  // built from a misread value.
  EXPECT_THROW(ta::analyze(std::string(kSyntheticTrace) + " junk"),
               std::runtime_error);
  EXPECT_THROW(ta::analyze(std::string(1'000'000, '[')), std::runtime_error);
  EXPECT_THROW(ta::analyze("{\"traceEvents\": [{\"name\": \"a\\uZZZZb\", "
                           "\"ph\": \"X\", \"ts\": 0, \"dur\": 5}]}"),
               std::runtime_error);
  for (const char* number : {"inf", "nan", "0x10", "+1"})
    EXPECT_THROW(ta::analyze(std::string("{\"traceEvents\": [{\"name\": "
                                         "\"s\", \"ph\": \"X\", \"ts\": 0, "
                                         "\"dur\": ") +
                             number + "}]}"),
                 std::runtime_error)
        << number;
}

TEST(TraceAnalysis, ToleratesPrettyPrintedAndEscapedJson) {
  // Same events, reformatted with newlines/indentation and an escaped
  // name — the jq-roundtrip shape CI produces.
  const char* pretty = R"({
  "traceEvents": [
    {
      "name": "phase \"one\"",
      "ph": "X",
      "ts": 0,
      "dur": 1000,
      "tid": 0,
      "args": { "id": 1, "parent": 0 }
    }
  ]
})";
  const auto report = ta::analyze(pretty);
  EXPECT_EQ(report.span_count, 1u);
  ASSERT_EQ(report.critical_path.size(), 1u);
  EXPECT_EQ(report.critical_path[0].name, "phase \"one\"");
}

TEST(TraceAnalysis, AnalyzesARealRenderedTrace) {
  trace::set_enabled(true);
  trace::reset_for_testing();
  set_global_threads(2);
  {
    trace::Span outer("real.outer");
    parallel_for(64, [](std::size_t) { LONGTAIL_TRACE_SPAN("real.inner"); });
  }
  const std::string json = trace::render_json();
  trace::reset_for_testing();
  trace::set_enabled(false);
  set_global_threads(ThreadPool::default_threads());

  const auto report = ta::analyze(json);
  EXPECT_GT(report.span_count, 0u);
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_EQ(report.critical_path.front().name, "real.outer");
  ASSERT_FALSE(report.phases.empty());
  EXPECT_EQ(report.phases.front().name, "real.outer");
}

}  // namespace
}  // namespace longtail::util
