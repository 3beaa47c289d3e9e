// Process-global metrics registry: monotonic counters, gauges, and
// fixed-bucket latency histograms.
//
// The hot path is lock-free via per-thread shards: each thread is
// assigned one of kMetricShards padded slots on first use and only ever
// touches its own cache line (relaxed atomics keep overflow threads that
// share a slot correct). Reads combine the shards in ascending slot
// order — the same deterministic-combine philosophy as sharded_for — so a
// snapshot is a pure function of what was recorded, never of scheduling.
//
// Enabled via LONGTAIL_METRICS=1 (anything but "0"/"") or
// metrics::set_enabled(true); the perf_* binaries enable it
// programmatically so BENCH_*.json always carries the per-stage snapshot.
// When disabled, every LONGTAIL_METRIC_* macro is one branch on a cached
// bool: no registry lookup, no shard write, and pipeline output stays
// bit-identical.
//
// Stage timing histograms are written by trace spans: span X records its
// wall time into the histogram X_ms (see trace.hpp).
//
// Registered metric objects are never destroyed or moved (the registry
// hands out stable references that instrumentation caches in function-
// local statics), and reset_for_testing() zeroes values in place.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace longtail::util::metrics {

// Shard slots per metric. Threads beyond this share slots (atomics keep
// that correct); the pipeline runs far fewer concurrent threads.
inline constexpr std::size_t kMetricShards = 64;

bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// Index of the calling thread's shard slot (stable for the thread's
// lifetime; assigned round-robin on first use).
std::size_t shard_index() noexcept;

namespace detail {
struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) HistogramShard {
  static constexpr std::size_t kBuckets = 32;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  // Sum in nanoseconds-as-integer to keep the combine exact and
  // order-independent (double accumulation would not be).
  std::atomic<std::uint64_t> sum_ns{0};
  // Exact extremes (ns), also integer so the combine is order-free.
  // UINT64_MAX min means "no samples in this shard".
  std::atomic<std::uint64_t> min_ns{UINT64_MAX};
  std::atomic<std::uint64_t> max_ns{0};
};
}  // namespace detail

// Monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  // Combined value (shards summed in slot order).
  [[nodiscard]] std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::CounterShard, kMetricShards> shards_{};
};

// Last-writer-wins instantaneous value (set from one thread in practice).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Latency histogram over fixed power-of-two buckets: bucket b holds
// samples with value <= 2^b microseconds (last bucket is the overflow).
// Values are recorded in milliseconds (the unit the bench JSON uses).
class Histogram {
 public:
  void record_ms(double ms) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum_ms() const noexcept;
  [[nodiscard]] double mean_ms() const noexcept;
  // Exact smallest/largest recorded value in ms (0 when empty) — the
  // quantiles only report power-of-two bucket upper bounds, too coarse
  // for drift gating.
  [[nodiscard]] double min_ms() const noexcept;
  [[nodiscard]] double max_ms() const noexcept;
  // Upper bound (ms) of the bucket containing quantile q in [0,1].
  [[nodiscard]] double quantile_ms(double q) const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::HistogramShard, kMetricShards> shards_{};
};

// Registry lookups: create-on-first-use, return a stable reference.
// Names are dot-separated lowercase paths, "subsystem.stage[.what]"
// (see docs/observability.md).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

// JSON object {"counters":{...},"gauges":{...},"histograms":{...}} with
// keys sorted by name; appended verbatim to the BENCH_*.json files.
std::string snapshot_json();

// Zeroes every registered metric in place (references stay valid).
void reset_for_testing();

}  // namespace longtail::util::metrics

#define LONGTAIL_METRICS_CONCAT2(a, b) a##b
#define LONGTAIL_METRICS_CONCAT(a, b) LONGTAIL_METRICS_CONCAT2(a, b)

// Adds n to the named counter. The registry lookup happens once per call
// site (function-local static) and only if metrics are enabled.
#define LONGTAIL_METRIC_COUNT(name, n)                                   \
  do {                                                                   \
    if (::longtail::util::metrics::enabled()) {                          \
      static ::longtail::util::metrics::Counter&                        \
          LONGTAIL_METRICS_CONCAT(longtail_metric_counter_, __LINE__) = \
              ::longtail::util::metrics::counter(name);                  \
      LONGTAIL_METRICS_CONCAT(longtail_metric_counter_, __LINE__)       \
          .add(static_cast<std::uint64_t>(n));                           \
    }                                                                    \
  } while (0)

// Sets the named gauge to v.
#define LONGTAIL_METRIC_GAUGE(name, v)                                   \
  do {                                                                   \
    if (::longtail::util::metrics::enabled()) {                          \
      static ::longtail::util::metrics::Gauge&                          \
          LONGTAIL_METRICS_CONCAT(longtail_metric_gauge_, __LINE__) =   \
              ::longtail::util::metrics::gauge(name);                    \
      LONGTAIL_METRICS_CONCAT(longtail_metric_gauge_, __LINE__)         \
          .set(static_cast<double>(v));                                  \
    }                                                                    \
  } while (0)
