// Bench-trajectory gate: compares two BENCH_pipeline.json files and fails
// (exit 1) when the current run regresses more than the threshold on any
// gated metric. CI runs this against the committed baseline
// (bench/baselines/BENCH_pipeline.baseline.json) so a perf regression
// breaks the build instead of rotting silently; refresh instructions live
// next to the baseline file.
//
//   bench_compare <baseline.json> <current.json>
//                 [--threshold 0.15] [--hist-threshold 0.50] [--no-metrics]
//
// Wall-clock gate (best across runs, direction per metric):
//   events_per_sec     — higher is better
//   resolve_events_ms  — best (min) across runs, lower is better
//   analysis_ms        — best (min) across runs, lower is better
//
// Metrics-drift gate (over the embedded "metrics" snapshot, skipped with
// --no-metrics or when either file lacks the snapshot):
//   counters           — the perf workload is deterministic, so every
//                        counter present in both files must match EXACTLY;
//                        a drifted count means the work itself changed
//                        (shards lost, events skipped), which wall time
//                        alone can hide.
//   histograms         — sample count must match exactly (same reasoning);
//                        sum_ms may not regress by more than the histogram
//                        threshold (sums under 1 ms are skipped as noise).
//
// Both files are read with the strict parser of util/json.hpp; a file
// that is not one well-formed JSON document (empty, truncated, trailing
// junk) fails the gate with exit 2 and the parser's message, so a BENCH
// file that holds no data can never pass. A metric missing from a
// well-formed file is reported and skipped, not failed, so the gate
// survives schema evolution in either direction. Wall-clock metrics are
// every numeric value of the exact key anywhere in the document; counters
// and histogram counts are compared as the integers they were written as.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace {

struct Metric {
  const char* key;
  bool higher_is_better;
};

constexpr Metric kGatedMetrics[] = {
    {"events_per_sec", true},
    {"resolve_events_ms", false},
    {"analysis_ms", false},
    // Streaming section: sustained untrusted-ingest throughput. The key
    // is distinct from "events_per_sec" on purpose — the exact-key match
    // must not conflate the two.
    {"ingest_events_per_sec", true},
};

// Histogram sums below this many milliseconds are too noisy to gate.
constexpr double kHistSumFloorMs = 1.0;

using longtail::util::json::Value;

// Reads and parses one BENCH file; unreadable or malformed input exits 2.
Value load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return longtail::util::json::parse(ss.str());
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path, e.what());
    std::exit(2);
  }
}

// Every numeric value stored under `key` anywhere in the document (exact
// key, so "resolve_events_ms" never matches "synth.resolve_events_ms").
void collect_values(const Value& v, std::string_view key,
                    std::vector<double>& out) {
  for (const auto& [k, child] : v.obj) {
    if (k == key && child.kind == Value::kNum) out.push_back(child.num);
    collect_values(child, key, out);
  }
  for (const Value& child : v.arr) collect_values(child, key, out);
}

// A run set's representative value: the best across runs (max for
// throughput, min for wall time), so thread-count fan-out and machine
// noise both shrink instead of amplifying.
bool best_of(const Value& doc, const Metric& m, double* out) {
  std::vector<double> vals;
  collect_values(doc, m.key, vals);
  if (vals.empty()) return false;
  *out = m.higher_is_better ? *std::max_element(vals.begin(), vals.end())
                            : *std::min_element(vals.begin(), vals.end());
  return true;
}

// The member `key` of `v` if it is an object, else nullptr.
const Value* object_member(const Value* v, const char* key) {
  if (v == nullptr) return nullptr;
  const Value* m = v->find(key);
  return m != nullptr && m->kind == Value::kObj ? m : nullptr;
}

// An exact count, read from the number's text as written (a double would
// round counts above 2^53).
bool count_of(const Value* v, std::uint64_t* out) {
  if (v == nullptr || v->kind != Value::kNum) return false;
  *out = std::strtoull(v->str.c_str(), nullptr, 10);
  return true;
}

double number_or(const Value* v, double fallback) {
  return v != nullptr ? v->num_or(fallback) : fallback;
}

// Exact-counter and histogram-drift comparison. Returns the number of
// drifted metrics; keys missing from either side are skipped so schema
// evolution in either direction stays green.
int gate_metrics(const Value& baseline, const Value& current,
                 double hist_threshold) {
  const Value* base_m = object_member(&baseline, "metrics");
  const Value* cur_m = object_member(&current, "metrics");
  if (base_m == nullptr || cur_m == nullptr) {
    std::printf("  metrics            skipped (missing from %s)\n",
                base_m == nullptr ? "baseline" : "current");
    return 0;
  }

  int drifted = 0;
  const Value* base_counters = object_member(base_m, "counters");
  const Value* cur_counters = object_member(cur_m, "counters");
  std::size_t counters_checked = 0;
  if (base_counters != nullptr && cur_counters != nullptr) {
    for (const auto& [name, base_v] : base_counters->obj) {
      // profile.* metrics describe how the machine scheduled the run (e.g.
      // how many pool helpers were actually submitted), not the workload;
      // they are legitimately timing-dependent and exempt from gating.
      if (name.rfind("profile.", 0) == 0) continue;
      const Value* cur_v = cur_counters->find(name);
      if (cur_v == nullptr) continue;
      ++counters_checked;
      std::uint64_t base_n = 0;
      std::uint64_t cur_n = 0;
      count_of(&base_v, &base_n);
      count_of(cur_v, &cur_n);
      if (base_n != cur_n) {
        std::printf("  counter %-32s baseline %llu  current %llu  DRIFTED\n",
                    name.c_str(), static_cast<unsigned long long>(base_n),
                    static_cast<unsigned long long>(cur_n));
        ++drifted;
      }
    }
  }

  const Value* base_hists = object_member(base_m, "histograms");
  const Value* cur_hists = object_member(cur_m, "histograms");
  std::size_t hists_checked = 0;
  if (base_hists != nullptr && cur_hists != nullptr) {
    for (const auto& [name, base_h] : base_hists->obj) {
      if (name.rfind("profile.", 0) == 0) continue;  // same exemption
      const Value* cur_h = cur_hists->find(name);
      if (cur_h == nullptr) continue;
      ++hists_checked;
      std::uint64_t base_count = 0;
      std::uint64_t cur_count = 0;
      if (count_of(base_h.find("count"), &base_count) &&
          count_of(cur_h->find("count"), &cur_count) &&
          base_count != cur_count) {
        std::printf(
            "  histogram %-30s baseline count %llu  current count %llu  "
            "DRIFTED\n",
            name.c_str(), static_cast<unsigned long long>(base_count),
            static_cast<unsigned long long>(cur_count));
        ++drifted;
        continue;
      }
      const double base_sum = number_or(base_h.find("sum_ms"), -1);
      const double cur_sum = number_or(cur_h->find("sum_ms"), -1);
      if (base_sum < kHistSumFloorMs || cur_sum < 0) continue;
      const double delta = (cur_sum - base_sum) / base_sum;
      if (delta > hist_threshold) {
        std::printf(
            "  histogram %-30s baseline sum %.2fms  current sum %.2fms  "
            "%+.0f%%  REGRESSED\n",
            name.c_str(), base_sum, cur_sum, delta * 100.0);
        ++drifted;
      }
    }
  }
  std::printf(
      "  metrics            %zu counters exact, %zu histograms gated: "
      "%d drifted\n",
      counters_checked, hists_checked, drifted);
  return drifted;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.15;
  double hist_threshold = 0.50;
  bool gate_metrics_drift = true;
  const char* paths[2] = {nullptr, nullptr};
  int n_paths = 0;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (arg == "--hist-threshold" && i + 1 < argc) {
      hist_threshold = std::strtod(argv[++i], nullptr);
    } else if (arg == "--no-metrics") {
      gate_metrics_drift = false;
    } else if (!arg.empty() && arg[0] == '-') {
      bad = true;
    } else if (n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      bad = true;
    }
  }
  if (bad || n_paths != 2 || threshold <= 0.0 || hist_threshold <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <current.json> "
                 "[--threshold 0.15] [--hist-threshold 0.50] "
                 "[--no-metrics]\n");
    return 2;
  }
  const Value baseline = load(paths[0]);
  const Value current = load(paths[1]);

  std::printf("bench gate: %s vs %s (threshold %.0f%%, histograms %.0f%%)\n",
              paths[1], paths[0], threshold * 100.0, hist_threshold * 100.0);
  int regressions = 0;
  for (const Metric& m : kGatedMetrics) {
    double base = 0.0;
    double cur = 0.0;
    const bool have_base = best_of(baseline, m, &base);
    if (!have_base || !best_of(current, m, &cur) || base <= 0.0) {
      std::printf("  %-18s skipped (missing from %s)\n", m.key,
                  have_base ? "current" : "baseline");
      continue;
    }
    // Positive delta = worse, regardless of the metric's direction.
    const double delta =
        m.higher_is_better ? (base - cur) / base : (cur - base) / base;
    const bool regressed = delta > threshold;
    std::printf("  %-18s baseline %12.1f  current %12.1f  %+6.1f%%  %s\n",
                m.key, base, cur, -delta * 100.0,
                regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }
  if (gate_metrics_drift)
    regressions += gate_metrics(baseline, current, hist_threshold);
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_compare: %d metric(s) regressed more than the "
                 "threshold\n",
                 regressions);
    return 1;
  }
  return 0;
}
