#include "deploy/online.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <string_view>

#include "groundtruth/engines.hpp"
#include "model/time.hpp"
#include "util/metrics.hpp"
#include "util/prefetch.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace longtail::deploy {

namespace {
using model::Verdict;

constexpr model::Timestamp kPeriodEnd =
    model::kMonthStart[model::kNumCalendarMonths];
}  // namespace

OnlineLabeler::OnlineLabeler(const synth::Dataset& dataset,
                             const analysis::AnnotatedCorpus& annotated,
                             OnlineConfig config)
    : dataset_(dataset),
      annotated_(annotated),
      config_(config),
      extract_(annotated_, space_),
      learner_(config_.part),
      fresh_(annotated_.corpus->files.size()) {}

std::vector<features::Instance> OnlineLabeler::training_window(
    model::Month month) {
  const auto end = model::month_end(month);

  // Canonical order: sort by file id BEFORE feature extraction, so the
  // feature-space intern sequence is a pure function of the training set
  // (not of the list's arrival order). Extracting in file-id order makes
  // every windowing of the stream produce identical instances AND
  // identical interned value ids. Each file appears at most once.
  std::sort(month_firsts_.begin(), month_firsts_.end(),
            [](const model::DownloadEvent& a, const model::DownloadEvent& b) {
              return a.file < b.file;
            });

  std::vector<features::Instance> out;
  for (const auto& event : month_firsts_) {
    const model::FileId id = event.file;
    const Verdict v =
        config_.labels_as_of_training_time
            ? labeler_.verdict_as_of(dataset_.whitelist.contains(id),
                                     dataset_.vt.query(id), end)
            : annotated_.verdict(id);
    if (v != Verdict::kBenign && v != Verdict::kMalicious) continue;
    out.push_back(
        features::Instance{extract_(event), v == Verdict::kMalicious, id});
  }
  return out;
}

void OnlineLabeler::roll_month() {
  const std::size_t next = current_month_ + 1;
  if (next < model::kNumCollectionMonths) {
    // `next` is a deploy month: train on the month just completed.
    const auto training =
        training_window(static_cast<model::Month>(current_month_));
    const auto all_rules = learner_.learn(training);
    classifier_.emplace(rules::select_rules(all_rules, config_.tau),
                        config_.policy);
    MonthlyDeployStats stats;
    stats.rules_active = classifier_->rules().size();
    stats.training_instances = training.size();
    monthly_.push_back(stats);
    LONGTAIL_METRIC_COUNT("deploy.serve.retrains", 1);
  } else {
    classifier_.reset();
  }
  month_firsts_.clear();
  current_month_ = next;
}

model::Timestamp OnlineLabeler::evidence_label_time(
    model::FileId f, model::Timestamp first_report) const {
  if (dataset_.whitelist.contains(f)) return first_report;
  const auto& vt = dataset_.vt.query(f);
  if (!vt.has_value()) return kNever;

  // The as-of verdict only *turns* conclusive at one of these breakpoints
  // (clamped to the first report); between them conclusiveness can switch
  // off but never on. Each breakpoint's test is independent, so the label
  // time is the earliest conclusive one.
  const auto clean_span_s =
      groundtruth::LabelerConfig{}.min_clean_span_days * model::kSecondsPerDay;
  model::Timestamp earliest = kNever;
  const auto probe = [&](model::Timestamp t) {
    t = std::max(first_report, t);
    if (t >= earliest) return;
    const auto v = labeler_.verdict_as_of(false, vt, t);
    if (v == Verdict::kBenign || v == Verdict::kMalicious) earliest = t;
  };
  probe(first_report);
  probe(vt->first_scan);
  probe(vt->first_scan + clean_span_s);
  for (const auto& det : vt->detections)
    if (groundtruth::is_trusted(det.engine)) probe(det.signature_time);
  return earliest;
}

void OnlineLabeler::note_report(model::FileId f, model::Timestamp t) {
  auto& fs = fresh_[f.raw()];
  if (fs.first_report != kNever) return;
  fs.first_report = t;
  fs.labeled_at = evidence_label_time(f, t);
}

void OnlineLabeler::note_decision(model::FileId f, model::Timestamp t) {
  auto& fs = fresh_[f.raw()];
  if (t < fs.labeled_at) fs.labeled_at = t;
}

void OnlineLabeler::serve_events(const telemetry::EventStore& events) {
  const auto& c = *annotated_.corpus;
  const auto files = events.file_column();
  const auto processes = events.process_column();
  const auto urls = events.url_column();
  constexpr std::string_view kWho = "OnlineLabeler";
  telemetry::require_ids_below(files, fresh_.size(), kWho, "file");
  telemetry::require_ids_below(processes, c.processes.size(), kWho,
                               "process");
  telemetry::require_ids_below(urls, c.urls.size(), kWho, "url");
  // The rows serve_event reads at data-dependent addresses, for the event
  // kPrefetchAhead ahead. The ids were checked above; the verdict table
  // is the annotation's, so its bound is tested here.
  const auto& verdicts = annotated_.labels.file_verdicts;
  const auto prefetch = [&](std::size_t i) {
    const model::FileId f = files[i];
    __builtin_prefetch(&fresh_[f.raw()], 1);
    __builtin_prefetch(&c.files[f.raw()]);
    __builtin_prefetch(&dataset_.vt.query(f));
    if (f.raw() < verdicts.size()) __builtin_prefetch(&verdicts[f.raw()]);
    __builtin_prefetch(&c.processes[processes[i].raw()]);
    __builtin_prefetch(&c.urls[urls[i].raw()]);
  };
  util::for_each_ahead(events.size(), prefetch,
                       [&](std::size_t i) { serve_event(events[i]); });
}

void OnlineLabeler::serve_event(const model::DownloadEvent& e) {
  assert(!finished_);
  const auto m = static_cast<std::size_t>(model::month_of(e.time));
  while (current_month_ < m) roll_month();
  ++events_served_;
  note_report(e.file, e.time);

  // Classify with the rules active this month. January has no preceding
  // training window and August is outside the deploy range.
  if (current_month_ >= 1 && current_month_ < model::kNumCollectionMonths) {
    auto& stats = monthly_.back();
    ++stats.events;
    const auto x = extract_(e);
    const auto decision = classifier_->classify(x);
    switch (decision) {
      case rules::Decision::kMalicious: ++stats.decided_malicious; break;
      case rules::Decision::kBenign: ++stats.decided_benign; break;
      case rules::Decision::kRejected: ++stats.rejected; break;
      case rules::Decision::kNoMatch: ++stats.unmatched; break;
    }
    if (decision == rules::Decision::kMalicious ||
        decision == rules::Decision::kBenign) {
      note_decision(e.file, e.time);
      // Score against the final retrospective verdict where one exists.
      const auto final_verdict = annotated_.verdict(e.file);
      if (final_verdict == Verdict::kMalicious) {
        ++stats.final_malicious_decided;
        if (decision == rules::Decision::kMalicious) ++stats.true_positives;
      } else if (final_verdict == Verdict::kBenign) {
        ++stats.final_benign_decided;
        if (decision == rules::Decision::kMalicious) ++stats.false_positives;
      }
    }
  }

  // First download of each file this month feeds next month's training.
  const auto stamp = static_cast<std::uint8_t>(current_month_ + 1);
  auto& fs = fresh_[e.file.raw()];
  if (current_month_ + 1 < model::kNumCollectionMonths &&
      fs.month_stamp != stamp) {
    fs.month_stamp = stamp;
    month_firsts_.push_back(e);
  }
}

void OnlineLabeler::serve(const telemetry::EventWindow& window) {
  LONGTAIL_TRACE_SPAN_DETAIL("deploy.serve",
                             "events=" + std::to_string(window.events.size()));
  serve_events(window.events);
  if (window.events.size() > peak_window_events_)
    peak_window_events_ = window.events.size();
  LONGTAIL_METRIC_COUNT("deploy.serve.windows", 1);
  LONGTAIL_METRIC_COUNT("deploy.serve.events", window.events.size());
}

void OnlineLabeler::finish() {
  if (finished_) return;
  // Train through the remaining month boundaries so every deploy month has
  // an entry, exactly as a full replay would.
  while (current_month_ + 1 < model::kNumCollectionMonths) roll_month();
  classifier_.reset();

  // A label is observable only if it matured inside the served period.
  util::EmpiricalCdf latencies;
  double sum_s = 0.0;
  for (const auto& fs : fresh_) {
    if (fs.first_report == kNever) continue;
    ++freshness_.files_reported;
    if (fs.labeled_at < kPeriodEnd) {
      ++freshness_.files_labeled;
      const auto latency = fs.labeled_at - fs.first_report;
      latencies.add(static_cast<double>(latency));
      sum_s += static_cast<double>(latency);
    } else {
      ++freshness_.files_pending;
    }
  }
  latencies.finalize();
  freshness_.p50_s = latencies.quantile(0.50);
  freshness_.p90_s = latencies.quantile(0.90);
  freshness_.p99_s = latencies.quantile(0.99);
  freshness_.max_s = latencies.empty() ? 0.0 : latencies.quantile(1.0);
  freshness_.mean_s = freshness_.files_labeled == 0
                          ? 0.0
                          : sum_s / static_cast<double>(
                                        freshness_.files_labeled);
  LONGTAIL_METRIC_COUNT("deploy.freshness.files_labeled",
                        freshness_.files_labeled);
  LONGTAIL_METRIC_COUNT("deploy.freshness.files_pending",
                        freshness_.files_pending);
  finished_ = true;
}

std::vector<MonthlyDeployStats> OnlineLabeler::run() {
  LONGTAIL_TRACE_SPAN("deploy.online_run");
  assert(!finished_ && events_served_ == 0);
  serve_events(annotated_.corpus->events);
  finish();
  return monthly_;
}

}  // namespace longtail::deploy
