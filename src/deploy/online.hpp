// Operational deployment of the rule-based classifier.
//
// §VI-D: "this perfectly simulates how the system is used in operational
// environments; rules generated based on past events are used to classify
// new, unknown events in the future." This module is that environment,
// rebuilt as a *serving loop* over the streaming ingest path:
//
//   * closed `telemetry::EventWindow`s are served in stream order;
//   * at every month boundary the labeler retrains on the previous month,
//     using only the ground truth *knowable at that moment*
//     (groundtruth::Labeler::verdict_as_of — signatures developed later
//     are invisible, unlike the paper's retrospective two-year labels);
//   * each incoming download is classified with the rules active at its
//     timestamp, and every file's label is re-derived as its
//     `verdict_as_of` evidence matures (whitelist hits immediately,
//     detections at their signature times or at the first VT scan if the
//     signature predates it, clean files once their scan span crosses the
//     14-day threshold);
//   * the loop reports report-to-labeled *freshness latency*: how long
//     after a file's first report either a rule decision or matured
//     evidence produced a conclusive label.
//
// `run()` is the batch replay: it drives the same serving loop with the
// whole corpus as a single stream, so windowed serving and one-shot replay
// are bit-identical by construction.
//
// Serving state is dense: a file id indexes one flat serving record
// (freshness, and a month stamp that admits the file once per month to
// the next retrain's list), so serving an event reads one per-file record,
// allocates nothing beyond appending to that list, and finds a file's
// label time without copying its VT report. The loop prefetches the
// per-file and per-entity rows an event reads a few events ahead
// (util/prefetch.hpp), so a window's cache misses overlap.
//
// Comparing the per-month results against the retrospective Table XVII
// quantifies how much accuracy the two-year label maturation is worth.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/annotated.hpp"
#include "features/dataset.hpp"
#include "groundtruth/labeler.hpp"
#include "rules/classifier.hpp"
#include "rules/part.hpp"
#include "synth/generator.hpp"
#include "telemetry/streaming.hpp"

namespace longtail::deploy {

struct OnlineConfig {
  double tau = 0.001;
  rules::PartConfig part{};
  rules::ConflictPolicy policy = rules::ConflictPolicy::kReject;
  // If true, train with labels as of the retraining moment (operational);
  // if false, use the final retrospective labels (the paper's setting).
  bool labels_as_of_training_time = true;
};

// Per-month deployment statistics. Accuracy is scored against the *final*
// (retrospective) ground truth, while training only ever saw the labels
// available at retraining time.
struct MonthlyDeployStats {
  std::uint64_t events = 0;
  std::uint64_t decided_malicious = 0;
  std::uint64_t decided_benign = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unmatched = 0;

  // Decisions on files whose final verdict is known, scored against it.
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t final_malicious_decided = 0;
  std::uint64_t final_benign_decided = 0;

  std::size_t rules_active = 0;
  std::size_t training_instances = 0;

  [[nodiscard]] double tp_rate() const {
    return final_malicious_decided == 0
               ? 0.0
               : 100.0 * static_cast<double>(true_positives) /
                     static_cast<double>(final_malicious_decided);
  }
  [[nodiscard]] double fp_rate() const {
    return final_benign_decided == 0
               ? 0.0
               : 100.0 * static_cast<double>(false_positives) /
                     static_cast<double>(final_benign_decided);
  }
};

// Report-to-labeled freshness over the served stream. A file counts as
// *labeled* at the earliest of (a) the first rule decision on one of its
// downloads and (b) the moment its verdict_as_of evidence first turns
// conclusive (benign or malicious), clamped to no earlier than its first
// report. Files whose evidence never matures inside the collection period
// stay *pending* — the long tail of label latency.
struct FreshnessStats {
  std::uint64_t files_reported = 0;
  std::uint64_t files_labeled = 0;
  std::uint64_t files_pending = 0;
  // Exact percentiles (seconds) over labeled files' latencies.
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
  double mean_s = 0.0;
};

class OnlineLabeler {
 public:
  OnlineLabeler(const synth::Dataset& dataset,
                const analysis::AnnotatedCorpus& annotated,
                OnlineConfig config = {});
  // The extractor is bound to the labeler's own feature space.
  OnlineLabeler(const OnlineLabeler&) = delete;
  OnlineLabeler& operator=(const OnlineLabeler&) = delete;

  // Replays the full corpus: retrains at each month boundary, classifies
  // every event of the following month. Months without a preceding
  // training window (January) are skipped. Implemented as serve() over
  // the corpus as one stream, then finish(). Single-shot — construct a
  // fresh labeler per replay.
  [[nodiscard]] std::vector<MonthlyDeployStats> run();

  // Streaming serving loop: consume one closed ingest window. Windows
  // must arrive in stream order (as emitted by the collection server).
  // Throws std::out_of_range, before serving any event of the window, when
  // an event's file, process or url id is outside the annotated corpus's
  // tables (ingest quarantines bad file and url ids).
  void serve(const telemetry::EventWindow& window);
  // End of stream: trains through the final month boundary and finalizes
  // freshness accounting. Idempotent.
  void finish();

  // Valid after finish(). One entry per deploy month (Feb..Jul).
  [[nodiscard]] const std::vector<MonthlyDeployStats>& monthly() const {
    return monthly_;
  }
  [[nodiscard]] const FreshnessStats& freshness() const {
    return freshness_;
  }
  [[nodiscard]] std::uint64_t events_served() const noexcept {
    return events_served_;
  }
  // Serving-load shape: the largest single ingest window served, in
  // events. Flash-crowd scenarios concentrate a whole campaign into one
  // window; the freshness percentiles under that spike are the serving
  // loop's burst-tolerance signal (bench/table_scenarios.cpp).
  [[nodiscard]] std::uint64_t peak_window_events() const noexcept {
    return peak_window_events_;
  }

 private:
  static constexpr model::Timestamp kNever =
      std::numeric_limits<model::Timestamp>::max();

  // One file's serving record.
  struct FileFreshness {
    model::Timestamp first_report = kNever;  // kNever until reported
    model::Timestamp labeled_at = kNever;    // kNever if no label yet
    // 1 + the last month whose `month_firsts_` took the file's download
    // (0: none yet). Never reset: each month has its own value.
    std::uint8_t month_stamp = 0;
  };

  // Checks the ids of every event, then serves them in order.
  void serve_events(const telemetry::EventStore& events);
  void serve_event(const model::DownloadEvent& e);
  // Advance the serving clock past `current_month_`: train next month's
  // classifier from this month's first-download instances.
  void roll_month();
  // Training instances for the files first seen in `month` (the serving
  // loop's first-event list), labeled with the evidence available at the
  // month's end (or final labels, per config). Extraction happens in
  // ascending file-id order so the feature-space intern sequence is a pure
  // function of the training set.
  [[nodiscard]] std::vector<features::Instance> training_window(
      model::Month month);
  // Earliest time >= `first_report` at which verdict_as_of turns
  // conclusive for `f`, or kNever. Conclusiveness only switches on at one
  // of four breakpoints: the first report itself, the first VT scan (VT
  // has no record before it, so a signature that predates it shows only
  // then), a trusted engine's signature time, or the scan span crossing
  // the 14-day threshold. The label time is the earliest breakpoint, each
  // clamped to the first report, at which the verdict is conclusive.
  [[nodiscard]] model::Timestamp evidence_label_time(
      model::FileId f, model::Timestamp first_report) const;
  void note_report(model::FileId f, model::Timestamp t);
  void note_decision(model::FileId f, model::Timestamp t);

  const synth::Dataset& dataset_;
  const analysis::AnnotatedCorpus& annotated_;
  OnlineConfig config_;
  groundtruth::Labeler labeler_;
  features::FeatureSpace space_;
  features::FeatureExtractor extract_;
  rules::PartLearner learner_;

  // Serving state. serve_events rejects an id outside the corpus tables.
  std::size_t current_month_ = 0;  // calendar month being served
  std::optional<rules::RuleClassifier> classifier_;
  // This month's first download of each file, in arrival order; the next
  // retrain extracts it in ascending file-id order.
  std::vector<model::DownloadEvent> month_firsts_;
  std::vector<MonthlyDeployStats> monthly_;
  std::uint64_t events_served_ = 0;
  std::uint64_t peak_window_events_ = 0;
  bool finished_ = false;

  // Serving records, indexed by file id and sized from the annotated
  // corpus's file table.
  std::vector<FileFreshness> fresh_;
  FreshnessStats freshness_;
};

}  // namespace longtail::deploy
