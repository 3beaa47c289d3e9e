// Offline analysis of the Chrome trace-event JSON that util/trace emits:
// the engine behind tools/trace_report.
//
// analyze() ingests a trace document and computes
//
//   * the critical path — starting from a virtual root spanning the whole
//     trace, repeatedly descend into the child span (nested or
//     cross-thread, via the parent ids carried in args) that finishes
//     last, i.e. the chain of spans that determined the end-to-end wall
//     time; each step reports how much trailing time the step itself
//     contributed ("tail") after its last child finished;
//   * self-time vs total-time per span name and the top-N hotspots by
//     self time, with CPU attribution when the trace was recorded under
//     LONGTAIL_PROFILE (spans then carry "cpu_ms");
//   * per-phase parallel efficiency: for every top-level span,
//     Σ busy / (wall × lanes), where busy is the phase's own duration
//     plus all "pool.task" worker spans nested below it and lanes is
//     1 + the worker-thread count from the trace metadata;
//   * counter-series summaries (the profile sampler's RSS/fault/context-
//     switch tracks).
//
// The document is read with the strict parser of util/json.hpp, which
// accepts any whitespace layout (jq-pretty-printed traces parse the same
// as ours) and rejects malformed or hostile input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace longtail::util::trace_analysis {

struct NameStat {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;  // sum of span durations
  double self_ms = 0;   // total minus direct children (clamped at 0)
  double max_ms = 0;    // longest single span
  double cpu_ms = -1;   // summed thread-CPU time; -1 = not recorded
};

struct CritStep {
  std::string name;
  std::uint32_t tid = 0;
  double start_ms = 0;
  double dur_ms = 0;
  double tail_ms = 0;  // time after the step's last child finished
};

struct PhaseStat {
  std::string name;
  double start_ms = 0;
  double wall_ms = 0;
  double busy_ms = 0;  // own duration + nested pool.task spans
  double efficiency = 0;  // busy / (wall * lanes)
};

struct CounterStat {
  std::string name;
  std::uint64_t samples = 0;
  double min = 0, max = 0, last = 0;
};

struct Report {
  std::uint64_t span_count = 0;
  unsigned thread_count = 0;  // tracks named in the trace metadata
  unsigned worker_count = 0;  // of which pool workers
  double wall_ms = 0;         // last span end minus first span start
  std::vector<CritStep> critical_path;  // outermost first
  std::vector<NameStat> hotspots;       // sorted by self_ms descending
  std::vector<PhaseStat> phases;        // top-level spans in time order
  std::vector<CounterStat> counters;
};

// Analyzes a trace document. Throws std::runtime_error on malformed
// JSON or a document without a traceEvents array.
Report analyze(std::string_view trace_json, std::size_t top_n = 20);

std::string render_markdown(const Report& report);
std::string render_json(const Report& report);

}  // namespace longtail::util::trace_analysis
