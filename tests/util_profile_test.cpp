// Tests for the profiling layer: gating, CPU clocks, span CPU
// attribution, the pool task spans, the resource sampler, and the
// metrics publication.
#include "util/profile.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::util {
namespace {

// Burns CPU long enough for CLOCK_THREAD_CPUTIME_ID to advance.
void burn_cpu() {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) acc = acc + i * i;
}

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profile::set_enabled(false);
    metrics::reset_for_testing();
  }
  void TearDown() override {
    profile::set_enabled(false);
    trace::reset_for_testing();
    trace::set_enabled(false);
    metrics::set_enabled(false);
    metrics::reset_for_testing();
    set_global_threads(ThreadPool::default_threads());
  }
};

TEST_F(ProfileTest, DisabledByDefault) { EXPECT_FALSE(profile::enabled()); }

TEST_F(ProfileTest, ThreadCpuClockAdvancesMonotonically) {
  const auto before = profile::thread_cpu_ns();
  burn_cpu();
  const auto after = profile::thread_cpu_ns();
  EXPECT_GE(after, before);
  EXPECT_GT(after, 0u);
  EXPECT_GE(profile::process_cpu_ns(), after);
}

TEST_F(ProfileTest, ResourceReadingsArePlausible) {
  EXPECT_GT(profile::peak_rss_mb(), 0.0);
  const auto s = profile::sample_resources();
  EXPECT_GT(s.rss_mb, 0.0);
  // Current resident set can never exceed the process peak.
  EXPECT_LE(s.rss_mb, profile::peak_rss_mb() + 1.0);
  EXPECT_GT(s.minor_faults, 0u);
}

TEST_F(ProfileTest, SpanCarriesCpuTimeOnlyWhenProfiled) {
  trace::set_enabled(true);
  trace::reset_for_testing();
  { LONGTAIL_TRACE_SPAN("profile.unprofiled"); }
  profile::set_enabled(true);
  {
    trace::Span span("profile.profiled");
    burn_cpu();
  }
  const auto events = trace::snapshot_for_testing();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    if (e.name == "profile.unprofiled") {
      EXPECT_LT(e.cpu_ns, 0) << "cpu must not be captured while disabled";
    }
    if (e.name == "profile.profiled") {
      EXPECT_GT(e.cpu_ns, 0) << "a busy profiled span must burn cpu";
    }
  }
  const std::string json = trace::render_json();
  EXPECT_NE(json.find("\"cpu_ms\": "), std::string::npos);
}

TEST_F(ProfileTest, PoolTaskSpansFeedTheTaskHistogramOnlyWhenProfiled) {
  // Rebuilding the pool is the only reliable barrier: the destructor
  // drains the queue before joining, so every submitted task — wrapper
  // included — has fully completed afterwards.
  constexpr std::size_t kTasks = 16;
  metrics::set_enabled(true);
  const auto& tasks = metrics::histogram("profile.pool.task_ms");
  set_global_threads(4);
  for (std::size_t i = 0; i < kTasks; ++i) global_pool().submit([] {});
  set_global_threads(4);  // drain
  EXPECT_EQ(tasks.count(), 0u)
      << "pool tasks are timed only under LONGTAIL_PROFILE";

  profile::set_enabled(true);
  for (std::size_t i = 0; i < kTasks; ++i)
    global_pool().submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
  set_global_threads(4);  // drain
  EXPECT_EQ(tasks.count(), kTasks);
  EXPECT_GT(tasks.sum_ms(), 0.0);
}

TEST_F(ProfileTest, SamplerCollectsAndEmitsCounterSeries) {
  trace::set_enabled(true);
  trace::reset_for_testing();
  profile::set_enabled(true);
  profile::Sampler sampler(/*interval_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.stop();
  EXPECT_GE(sampler.samples(), 1u);
  EXPECT_GT(sampler.max_rss_seen_mb(), 0.0);

  std::size_t counters = 0;
  for (const auto& e : trace::snapshot_for_testing())
    if (e.is_counter) ++counters;
  // Five series per sample point.
  EXPECT_EQ(counters, sampler.samples() * 5);
  const std::string json = trace::render_json();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("profile.rss_mb"), std::string::npos);

  // stop() is idempotent: a second stop must not re-emit the series.
  sampler.stop();
  std::size_t counters_again = 0;
  for (const auto& e : trace::snapshot_for_testing())
    if (e.is_counter) ++counters_again;
  EXPECT_EQ(counters_again, counters);
}

TEST_F(ProfileTest, PublishMetricsWritesProfileKeys) {
  metrics::set_enabled(true);
  metrics::reset_for_testing();
  profile::set_enabled(true);
  set_global_threads(2);
  parallel_for(64, [](std::size_t) {});
  profile::Sampler sampler(/*interval_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.stop();
  profile::publish_metrics();

  const std::string snap = metrics::snapshot_json();
  EXPECT_NE(snap.find("\"profile.peak_rss_mb\""), std::string::npos);
  EXPECT_NE(snap.find("\"profile.cpu_ms\""), std::string::npos);
  EXPECT_NE(snap.find("\"profile.sampler.samples\""), std::string::npos);
}

TEST_F(ProfileTest, PublishMetricsIsNoOpWhenMetricsDisabled) {
  profile::set_enabled(true);
  metrics::set_enabled(false);
  metrics::reset_for_testing();
  profile::publish_metrics();
  // The registry may already hold the gauge from an earlier test; a no-op
  // publish must leave its (reset) value untouched.
  EXPECT_EQ(metrics::gauge("profile.peak_rss_mb").value(), 0.0);
}

}  // namespace
}  // namespace longtail::util
