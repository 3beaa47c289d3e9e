// CPU/RSS profiling layer on top of trace/metrics.
//
// Three connected pieces, all gated on LONGTAIL_PROFILE with the same
// one-relaxed-load-off contract as trace.hpp / metrics.hpp:
//
//   * Per-span thread-CPU-time attribution: when profiling is on,
//     trace::Span captures CLOCK_THREAD_CPUTIME_ID at open and close and
//     the trace export carries the delta as "cpu_ms" in the span's args,
//     so a trace distinguishes time a span burned CPU from time it
//     waited (dur - cpu).
//   * A background resource sampler: a dedicated thread samples resident
//     set size (/proc/self/statm), page faults, and context switches
//     (getrusage) on a fixed interval, publishes running summaries, and
//     emits the series as Chrome trace counter events ("ph":"C") when
//     the sampler stops — never concurrently with a trace flush.
//   * Per-worker busy accounting: ThreadPool wraps each submitted task
//     in a "pool.task" span, which records the task's wall time into the
//     profile.pool.task_ms histogram (its count and sum_ms are the tasks
//     run and the total worker-busy time) and, when tracing, into the
//     trace, where the offline analyzer (tools/trace_report) computes
//     parallel efficiency Σ busy / (wall × threads).
//
// Profiling reads clocks and /proc only; it never touches RNG state,
// iteration order, or stdout, so pipeline output is byte-identical with
// LONGTAIL_PROFILE set or unset (the determinism suite pins this).
//
// LONGTAIL_PROFILE=1 enables everything with the default 50 ms sampling
// interval; a value > 1 is taken as the interval in milliseconds
// (e.g. LONGTAIL_PROFILE=200). The perf_* binaries enable profiling
// programmatically so every BENCH_*.json carries the profile keys.
#pragma once

#include <cstdint>

namespace longtail::util::profile {

// True when profiling is active (LONGTAIL_PROFILE set, or overridden via
// set_enabled). The env path also starts the background sampler once.
bool enabled() noexcept;

// Test/tool hook: force profiling on or off regardless of the
// environment. Does not start or stop the sampler (use Sampler).
void set_enabled(bool on) noexcept;

// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
std::uint64_t thread_cpu_ns() noexcept;

// CPU time consumed by the whole process (CLOCK_PROCESS_CPUTIME_ID).
std::uint64_t process_cpu_ns() noexcept;

// Peak resident set of this process so far, in MiB (ru_maxrss is KiB on
// Linux). Monotone per process. This is the one shared definition;
// bench_common reuses it.
double peak_rss_mb() noexcept;

// One point-in-time resource reading (getrusage + /proc/self/statm).
struct ResourceSample {
  double rss_mb = 0.0;             // current resident set
  std::uint64_t minor_faults = 0;  // cumulative ru_minflt
  std::uint64_t major_faults = 0;  // cumulative ru_majflt
  std::uint64_t voluntary_ctx = 0;    // cumulative ru_nvcsw
  std::uint64_t involuntary_ctx = 0;  // cumulative ru_nivcsw
};
ResourceSample sample_resources() noexcept;

// ---- background resource sampler -----------------------------------------

// Samples resources every `interval_ms` on a dedicated thread. Samples
// are buffered internally; stop() (or destruction) joins the thread and
// then emits the series into the trace as counter events, so emission
// never races a trace flush. Running summaries (sample count, max RSS)
// are updated continuously and readable via publish_metrics().
class Sampler {
 public:
  explicit Sampler(std::uint64_t interval_ms = 50);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Idempotent: joins the sampling thread and writes the buffered series
  // to the trace (profile.rss_mb, profile.minor_faults, ...).
  void stop();

  // Running summaries, readable while the sampler runs.
  [[nodiscard]] std::uint64_t samples() const noexcept;
  [[nodiscard]] double max_rss_seen_mb() const noexcept;

 private:
  struct Impl;
  Impl* impl_;
};

// Writes the profile summary into the metrics registry (no-op when
// metrics are disabled): gauges profile.peak_rss_mb, profile.cpu_ms,
// profile.sampler.samples and profile.sampler.max_rss_mb. The perf
// binaries call this right before taking the metrics snapshot for
// BENCH_*.json.
void publish_metrics();

}  // namespace longtail::util::profile
