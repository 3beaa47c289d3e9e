// Shared measurement helpers for the degradation sweeps.
//
// table_robustness (fault profiles) and table_scenarios (adversarial
// world scenarios) report the same headline reproduction metrics — the
// §IV-A unknown-file share and unknown machine coverage, and the §VI
// Mar→Apr rule TP/FP at tau — so both must measure them through one code
// path; a drift number is only comparable across the two sweeps if the
// metric is computed identically. This header is that single code path,
// plus the scenario sweep's σ-cap saturation scan and the streaming
// serving replay (the perf_pipeline streaming section's pass-through
// harness, reusable per sweep run).
#pragma once

#include <limits>
#include <vector>

#include "analysis/streaming.hpp"
#include "bench_common.hpp"
#include "deploy/online.hpp"
#include "telemetry/streaming.hpp"

namespace longtail::bench {

// The headline reproduction metrics every sweep reports, measured on an
// annotated pipeline. Paper baselines: 83% unknown files, 69% unknown
// machine coverage; Tables XVI/XVII TP/FP at tau = 0.1%.
struct HeadlineMetrics {
  double unknown_file_pct = 0;
  double unknown_machine_pct = 0;
  double rule_tp_rate = 0;
  double rule_fp_rate = 0;
};

inline HeadlineMetrics measure_headline(const core::LongtailPipeline& pipeline,
                                        double tau = 0.001) {
  HeadlineMetrics h;
  const auto monthly = analysis::monthly_summary(pipeline.annotated());
  h.unknown_file_pct = 100.0 - monthly.overall.file_benign -
                       monthly.overall.file_likely_benign -
                       monthly.overall.file_malicious -
                       monthly.overall.file_likely_malicious;
  h.unknown_machine_pct = analysis::machine_coverage(pipeline.annotated())
                              .pct(model::Verdict::kUnknown);
  const auto experiment = pipeline.run_rule_experiment(model::Month::kMarch,
                                                       model::Month::kApril);
  const auto eval = core::LongtailPipeline::evaluate_tau(experiment, tau);
  h.rule_tp_rate = eval.eval.tp_rate();
  h.rule_fp_rate = eval.eval.fp_rate();
  return h;
}

inline std::string headline_json(const HeadlineMetrics& h,
                                 std::uint64_t events,
                                 std::uint64_t fingerprint) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return util::json::Object()
      .field("unknown_file_pct", h.unknown_file_pct)
      .field("unknown_machine_pct", h.unknown_machine_pct)
      .field("rule_tp_rate", h.rule_tp_rate)
      .field("rule_fp_rate", h.rule_fp_rate)
      .field("events", events)
      .field("fingerprint", std::string_view(fp))
      .str();
}

// Drift of one run's headline vs the sweep baseline, percentage points.
inline std::string headline_drift_json(const HeadlineMetrics& r,
                                       const HeadlineMetrics& base) {
  return util::json::Object()
      .field("unknown_file_pct", r.unknown_file_pct - base.unknown_file_pct)
      .field("unknown_machine_pct",
             r.unknown_machine_pct - base.unknown_machine_pct)
      .field("rule_tp_rate", r.rule_tp_rate - base.rule_tp_rate)
      .field("rule_fp_rate", r.rule_fp_rate - base.rule_fp_rate)
      .str();
}

// σ-cap saturation over the *accepted* corpus: how many distinct files
// the prevalence cap is actively limiting. A churn adversary's goal is to
// drive saturated_files toward zero while moving the same raw volume —
// the cap then never fires and every variant's full victim set reports.
struct SigmaCapStats {
  std::uint64_t files_seen = 0;       // distinct files with accepted events
  std::uint64_t saturated_files = 0;  // admitted-machine count == sigma
  std::uint64_t dropped_prevalence_cap = 0;  // from CollectionStats
  std::uint64_t accepted = 0;
  std::uint64_t total_seen = 0;
  [[nodiscard]] double admission_pct() const {
    return total_seen == 0 ? 0.0
                           : 100.0 * static_cast<double>(accepted) /
                                 static_cast<double>(total_seen);
  }
};

// Reads the accepted corpus's distinct machines per file from the
// pipeline's index; the collection server caps them at sigma, so a file
// at sigma is saturated.
inline SigmaCapStats measure_sigma_cap(
    const core::LongtailPipeline& pipeline) {
  const synth::Dataset& ds = pipeline.dataset();
  const telemetry::CorpusIndex& index = pipeline.annotated().index;
  SigmaCapStats s;
  s.dropped_prevalence_cap = ds.collection_stats.dropped_prevalence_cap;
  s.accepted = ds.collection_stats.accepted;
  s.total_seen = ds.collection_stats.total_seen();
  s.files_seen = index.observed_files().size();
  for (const model::FileId f : index.observed_files())
    if (index.reach().prevalence(f) >= ds.profile.sigma) ++s.saturated_files;
  return s;
}

inline std::string sigma_json(const SigmaCapStats& s) {
  return util::json::Object()
      .field("files_seen", s.files_seen)
      .field("saturated_files", s.saturated_files)
      .field("dropped_prevalence_cap", s.dropped_prevalence_cap)
      .field("accepted", s.accepted)
      .field("total_seen", s.total_seen)
      .field("admission_pct", s.admission_pct())
      .str();
}

// Streaming serving replay: re-ingests the collected corpus through the
// untrusted streaming path with `collect_in_order` (pass-through policy —
// sigma was already applied at collection, so every event survives and
// the serving loop sees exactly the corpus), then serves every closed
// window through the online labeler. Freshness percentiles and the
// peak-window load are how burst scenarios stress the serving loop.
struct StreamingReplayStats {
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_window_events = 0;
  double ingest_ms = 0;
  double ingest_events_per_sec = 0;
  double serve_ms = 0;
  bool conserved = false;
  deploy::FreshnessStats freshness;
};

inline StreamingReplayStats replay_streaming(
    const synth::Dataset& ds, const analysis::AnnotatedCorpus& annotated) {
  StreamingReplayStats out;
  const auto& events = ds.corpus.events;
  const std::size_t n = events.size();
  out.events = n;

  telemetry::StreamingConfig cfg;
  cfg.policy.sigma = std::numeric_limits<std::uint32_t>::max();
  cfg.window_s = telemetry::StreamingConfig::window_from_env();
  cfg.num_files = ds.corpus.files.size();
  cfg.trusted = false;
  telemetry::StreamingCollectionServer server(std::move(cfg), ds.corpus.urls);

  std::vector<telemetry::EventWindow> windows;
  out.ingest_ms = time_ms(
      [&] { windows = telemetry::collect_in_order(server, events); });
  out.windows = windows.size();
  out.conserved = server.conserved();
  out.ingest_events_per_sec =
      out.ingest_ms > 0 ? 1000.0 * static_cast<double>(n) / out.ingest_ms
                        : 0.0;

  deploy::OnlineLabeler labeler(ds, annotated, {});
  out.serve_ms = time_ms([&] {
    for (const auto& w : windows) labeler.serve(w);
    labeler.finish();
  });
  out.peak_window_events = labeler.peak_window_events();
  out.freshness = labeler.freshness();
  return out;
}

inline std::string streaming_json(const StreamingReplayStats& s) {
  return util::json::Object()
      .field("windows", s.windows)
      .field("events", s.events)
      .field("peak_window_events", s.peak_window_events)
      .field("conserved", s.conserved)
      .field("ingest_ms", s.ingest_ms)
      .field("ingest_events_per_sec", s.ingest_events_per_sec)
      .field("serve_ms", s.serve_ms)
      .field("files_reported", s.freshness.files_reported)
      .field("files_labeled", s.freshness.files_labeled)
      .field("files_pending", s.freshness.files_pending)
      .field("freshness_p50_s", s.freshness.p50_s)
      .field("freshness_p90_s", s.freshness.p90_s)
      .field("freshness_p99_s", s.freshness.p99_s)
      .field("freshness_max_s", s.freshness.max_s)
      .field("freshness_mean_s", s.freshness.mean_s)
      .str();
}

}  // namespace longtail::bench
