// RAII span tracer with Chrome trace-event JSON export. The span is also
// the one timing instrument of the metrics layer: span X records its wall
// time into the histogram X_ms.
//
// Setting LONGTAIL_TRACE=<path> enables tracing; every
// LONGTAIL_TRACE_SPAN("stage.name") then records a complete ("ph":"X")
// event carrying begin/duration timestamps, the recording thread's stable
// id, and the id of the enclosing span. At process exit (or on an explicit
// trace::flush()) the combined event stream is written to <path> as
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// With metrics enabled (LONGTAIL_METRICS, see metrics.hpp), the same
// macro records the span's wall time into the histogram "stage.name_ms",
// whether or not tracing is on. A span reads the clock once at open and
// once at close, and that one duration feeds both the trace event and the
// histogram sample.
//
// When tracing and metrics are both off, every macro reduces to two
// branches on cached bools: no clock reads, no allocation, no locking,
// and — because instrumentation never touches RNG or data state —
// bit-identical pipeline output.
//
// Span nesting is tracked per thread with an implicit stack. ThreadPool
// tasks inherit the submitting thread's open span as their parent (see
// ThreadPool::submit), so worker spans recorded inside a parallel_for
// nest below the span that launched the loop even though they run on a
// different thread.
//
// Recording is thread-safe and lock-free on the hot path: each thread
// appends to its own buffer; the global registry mutex is taken only on a
// thread's first span and at flush time, where buffers are combined and
// sorted by start time so the output is stable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.hpp"

namespace longtail::util::trace {

// True when span recording is active (LONGTAIL_TRACE set, or overridden
// via set_enabled). Cached after the first call.
bool enabled() noexcept;

// Test/tool hook: force recording on or off regardless of the
// environment. `path` replaces the output file; empty keeps recording
// in memory only (flush() then writes nothing but render_json() works).
void set_enabled(bool on, std::string path = {});

// Id of the calling thread's innermost open span (0 = none).
std::uint64_t current_span() noexcept;

// Restores a captured span id as the calling thread's parent for the
// scope's lifetime; ThreadPool uses this to carry the submitting
// thread's span across to workers.
class ParentScope {
 public:
  explicit ParentScope(std::uint64_t parent) noexcept;
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  std::uint64_t saved_;
};

// One recorded span; only used by tests and the JSON renderer.
struct Event {
  std::string name;
  std::string detail;  // optional free-form annotation ("args.detail")
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top-level
  std::uint32_t tid = 0;     // stable per-thread id (0 = first thread seen)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  // Thread CPU time consumed inside the span (LONGTAIL_PROFILE only;
  // -1 = not captured). Exported as "cpu_ms" in the span's args.
  std::int64_t cpu_ns = -1;
  // Counter events ("ph":"C", e.g. the resource sampler's RSS series).
  bool is_counter = false;
  double value = 0.0;
};

// RAII span. `name` must outlive the span (string literals in practice).
// A non-null `hist` receives the span's wall time at close, whether or
// not tracing is on.
class Span {
 public:
  explicit Span(const char* name, metrics::Histogram* hist = nullptr)
      : traced_(enabled()), hist_(hist) {
    if (traced_ || hist_ != nullptr) begin(name);
  }
  Span(const char* name, std::string detail,
       metrics::Histogram* hist = nullptr)
      : traced_(enabled()), hist_(hist) {
    if (traced_) detail_ = std::move(detail);
    if (traced_ || hist_ != nullptr) begin(name);
  }
  ~Span() {
    if (traced_ || hist_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name);
  void end();

  const bool traced_;  // tracing was on at open: the span is recorded
  metrics::Histogram* const hist_;
  const char* name_ = nullptr;
  std::string detail_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  std::int64_t cpu_start_ns_ = -1;  // -1 = profiling off at span open
};

// Zero-duration instant event ("ph":"i"), e.g. phase markers.
void instant(const char* name);

// Nanoseconds since the trace clock's origin — the timebase of every
// recorded event. Use it to timestamp counter_at() points coherently.
std::uint64_t timestamp_ns() noexcept;

// Records a counter sample ("ph":"C") at an explicit timestamp. Used by
// the profile resource sampler, which buffers its series and emits it
// from one thread after sampling stops.
void counter_at(const char* name, std::uint64_t ts_ns, double value);

// All events recorded so far, sorted by (start_ns, id).
std::vector<Event> snapshot_for_testing();

// Renders the Chrome trace-event JSON document for everything recorded.
std::string render_json();

// Writes render_json() to the configured path. Returns false when no
// path is configured or the file cannot be written. Registered with
// atexit() automatically when tracing is enabled with a path.
bool flush();

// Drops all recorded events (buffers stay registered).
void reset_for_testing();

}  // namespace longtail::util::trace

#define LONGTAIL_TRACE_CONCAT2(a, b) a##b
#define LONGTAIL_TRACE_CONCAT(a, b) LONGTAIL_TRACE_CONCAT2(a, b)

// The histogram a span site records into: `name "_ms"`, looked up once
// per site and only while metrics are enabled (nullptr otherwise). `name`
// must be a string literal.
#define LONGTAIL_TRACE_HISTOGRAM(name)                             \
  (::longtail::util::metrics::enabled()                            \
       ? []() -> ::longtail::util::metrics::Histogram* {           \
           static ::longtail::util::metrics::Histogram& hist =     \
               ::longtail::util::metrics::histogram(name "_ms");   \
           return &hist;                                           \
         }()                                                       \
       : nullptr)

// Opens a span for the rest of the enclosing scope; it records into the
// trace and into the histogram `name "_ms"`.
#define LONGTAIL_TRACE_SPAN(name)                      \
  ::longtail::util::trace::Span LONGTAIL_TRACE_CONCAT( \
      longtail_trace_span_, __LINE__)(name, LONGTAIL_TRACE_HISTOGRAM(name))

// Span with a free-form detail string (only evaluated when tracing). The
// detail does not change the histogram: every span of one name records
// into the same `name "_ms"`.
#define LONGTAIL_TRACE_SPAN_DETAIL(name, detail)                          \
  ::longtail::util::trace::Span LONGTAIL_TRACE_CONCAT(                    \
      longtail_trace_span_, __LINE__)(                                    \
      name, ::longtail::util::trace::enabled() ? (detail) : std::string(), \
      LONGTAIL_TRACE_HISTOGRAM(name))
