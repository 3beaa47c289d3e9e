// Tests for the metrics registry: shard-combine determinism across
// thread counts, snapshot JSON shape, macro gating, the span-fed stage
// histograms, and a concurrent counter stress test meant to run under
// TSan.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::util {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::reset_for_testing();
  }
  void TearDown() override {
    metrics::reset_for_testing();
    metrics::set_enabled(false);
    set_global_threads(ThreadPool::default_threads());
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  auto& c = metrics::counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, RegistryReturnsStableReferences) {
  auto& a = metrics::counter("test.stable");
  // Force registry growth, then look the first one up again.
  for (int i = 0; i < 100; ++i)
    metrics::counter("test.stable." + std::to_string(i));
  auto& b = metrics::counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST_F(MetricsTest, ShardCombineDeterministicAcrossThreadCounts) {
  constexpr std::size_t kIterations = 10'000;
  std::vector<std::uint64_t> counter_values;
  std::vector<std::uint64_t> histogram_counts;
  std::vector<double> histogram_sums;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_global_threads(threads);
    metrics::reset_for_testing();
    auto& c = metrics::counter("test.determinism");
    auto& h = metrics::histogram("test.determinism_ms");
    parallel_for(kIterations, [&](std::size_t i) {
      c.add(i % 3);
      h.record_ms(static_cast<double>(i % 7) * 0.25);
    });
    counter_values.push_back(c.value());
    histogram_counts.push_back(h.count());
    histogram_sums.push_back(h.sum_ms());
  }
  // 0+1+2 repeating: 3333 full cycles cover i = 0..9998 (sum 9999) and
  // the final element i = 9999 contributes 9999 % 3 == 0.
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kIterations; ++i) expected += i % 3;
  for (std::size_t i = 0; i < counter_values.size(); ++i) {
    EXPECT_EQ(counter_values[i], expected) << "threads run " << i;
    EXPECT_EQ(histogram_counts[i], kIterations);
    EXPECT_DOUBLE_EQ(histogram_sums[i], histogram_sums[0])
        << "sum must not depend on LONGTAIL_THREADS";
  }
}

TEST_F(MetricsTest, HistogramQuantilesAndMean) {
  auto& h = metrics::histogram("test.quantiles");
  // 90 fast samples and 10 slow ones: p50 lands in a small bucket, p99 in
  // the large one.
  for (int i = 0; i < 90; ++i) h.record_ms(0.002);  // 2us
  for (int i = 0; i < 10; ++i) h.record_ms(8.0);    // 8ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum_ms(), 90 * 0.002 + 10 * 8.0, 0.01);
  EXPECT_LT(h.quantile_ms(0.50), 0.01);
  EXPECT_GE(h.quantile_ms(0.99), 8.0);
  EXPECT_GT(h.mean_ms(), 0.0);
}

TEST_F(MetricsTest, HistogramTracksExactExtremes) {
  auto& h = metrics::histogram("test.extremes");
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.0);  // empty
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.0);
  h.record_ms(3.5);
  h.record_ms(0.002);
  h.record_ms(8.125);
  // Exact values, not power-of-two bucket bounds.
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.002);
  EXPECT_DOUBLE_EQ(h.max_ms(), 8.125);
  h.reset();
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.0);
}

TEST_F(MetricsTest, HistogramExtremesDeterministicAcrossThreadCounts) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_global_threads(threads);
    metrics::reset_for_testing();
    auto& h = metrics::histogram("test.extremes_par");
    parallel_for(10'000, [&](std::size_t i) {
      h.record_ms(0.5 + static_cast<double>(i % 100));
    });
    EXPECT_DOUBLE_EQ(h.min_ms(), 0.5) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(h.max_ms(), 99.5) << "threads=" << threads;
  }
}

TEST_F(MetricsTest, SnapshotJsonCarriesMinMax) {
  metrics::histogram("snap.minmax").record_ms(2.0);
  metrics::histogram("snap.minmax").record_ms(6.0);
  const std::string json = metrics::snapshot_json();
  EXPECT_NE(json.find("\"min_ms\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"max_ms\": 6"), std::string::npos);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  auto& g = metrics::gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(MetricsTest, SnapshotJsonContainsAllSections) {
  metrics::counter("snap.counter").add(7);
  metrics::gauge("snap.gauge").set(1.25);
  metrics::histogram("snap.hist").record_ms(3.0);
  const std::string json = metrics::snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"snap.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"snap.gauge\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST_F(MetricsTest, MacrosAreGatedOnEnabled) {
  metrics::set_enabled(false);
  LONGTAIL_METRIC_COUNT("test.gated", 5);
  metrics::set_enabled(true);
  LONGTAIL_METRIC_COUNT("test.gated", 2);
  EXPECT_EQ(metrics::counter("test.gated").value(), 2u);
}

// Metrics on, tracing off: a span scope is one sample in `<name>_ms`
// and no trace event.
TEST_F(MetricsTest, SpanRecordsOneSampleWithoutTracing) {
  trace::set_enabled(false);
  trace::reset_for_testing();
  { LONGTAIL_TRACE_SPAN("test.span"); }
  EXPECT_EQ(metrics::histogram("test.span_ms").count(), 1u);
  EXPECT_TRUE(trace::snapshot_for_testing().empty());
}

// A detail does not split the histogram: every span of one name records
// into the same `<name>_ms`.
TEST_F(MetricsTest, DetailSpanSharesThePlainSpansHistogram) {
  { LONGTAIL_TRACE_SPAN("test.shared"); }
  { LONGTAIL_TRACE_SPAN_DETAIL("test.shared", std::string("label")); }
  EXPECT_EQ(metrics::histogram("test.shared_ms").count(), 2u);
}

// Concurrent stress: many threads hammering the same counter and
// histogram through the pool; run under TSan in CI to prove the hot path
// is race-free. The exact totals double as a correctness check for
// threads sharing shard slots.
TEST_F(MetricsTest, ConcurrentCounterStress) {
  set_global_threads(8);
  constexpr std::size_t kIterations = 200'000;
  auto& c = metrics::counter("test.stress");
  auto& h = metrics::histogram("test.stress_ms");
  parallel_for(
      kIterations,
      [&](std::size_t i) {
        c.add(1);
        if (i % 64 == 0) h.record_ms(0.001);
      },
      /*grain=*/128);
  EXPECT_EQ(c.value(), kIterations);
  EXPECT_EQ(h.count(), (kIterations + 63) / 64);
}

}  // namespace
}  // namespace longtail::util
