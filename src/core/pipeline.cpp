#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::core {

LongtailPipeline::LongtailPipeline(const synth::CalibrationProfile& profile)
    : LongtailPipeline(synth::generate_dataset(profile)) {}

LongtailPipeline::LongtailPipeline(synth::Dataset dataset)
    : dataset_(std::move(dataset)) {
  LONGTAIL_TRACE_SPAN("pipeline.annotate");
  annotated_ = std::make_unique<analysis::AnnotatedCorpus>(analysis::annotate(
      dataset_.corpus, dataset_.whitelist, dataset_.vt));
}

namespace {

// One window's experiment from its two months' first-event lists.
RuleExperiment rule_experiment(
    const analysis::AnnotatedCorpus& a, model::Month train, model::Month test,
    std::span<const features::FirstEvent> train_first,
    std::span<const features::FirstEvent> test_first,
    const rules::PartConfig& config) {
  LONGTAIL_TRACE_SPAN_DETAIL(
      "pipeline.rule_experiment",
      "train=" + std::string(model::month_name(train)) +
          " test=" + std::string(model::month_name(test)));
  LONGTAIL_METRIC_COUNT("pipeline.rule_experiments", 1);
  RuleExperiment exp;
  exp.train_month = train;
  exp.test_month = test;
  exp.data = features::build_window_dataset(a, exp.space, train_first,
                                            test_first);
  const rules::PartLearner learner(config);
  exp.all_rules = learner.learn(exp.data.train);
  return exp;
}

}  // namespace

RuleExperiment LongtailPipeline::run_rule_experiment(
    model::Month train, model::Month test, rules::PartConfig config) const {
  const std::array window = {std::pair{train, test}};
  auto experiments = run_rule_experiments(window, config);
  return std::move(experiments.front());
}

std::vector<RuleExperiment> LongtailPipeline::run_rule_experiments(
    std::span<const std::pair<model::Month, model::Month>> windows,
    rules::PartConfig config) const {
  // Consecutive windows share months, so each month's first events are
  // scanned once and read by every window that trains or tests on it.
  std::vector<model::Month> months;
  for (const auto& [train, test] : windows)
    for (const auto m : {train, test})
      if (std::find(months.begin(), months.end(), m) == months.end())
        months.push_back(m);
  std::vector<std::vector<features::FirstEvent>> firsts;
  {
    LONGTAIL_TRACE_SPAN("pipeline.first_events");
    firsts = util::parallel_map(months.size(), [&](std::size_t i) {
      return features::first_events(*annotated_,
                                    model::month_begin(months[i]),
                                    model::month_end(months[i]));
    });
  }
  const auto first_events_of = [&](model::Month m) {
    return std::span<const features::FirstEvent>(
        firsts[std::find(months.begin(), months.end(), m) - months.begin()]);
  };
  // Each window reads the shared annotated corpus (const) and owns its
  // FeatureSpace, so windows are independent; results land in window
  // order regardless of scheduling.
  return util::parallel_map(windows.size(), [&](std::size_t i) {
    const auto [train, test] = windows[i];
    return rule_experiment(*annotated_, train, test, first_events_of(train),
                           first_events_of(test), config);
  });
}

TauEvaluation LongtailPipeline::evaluate_tau(const RuleExperiment& experiment,
                                             double tau,
                                             rules::ConflictPolicy policy) {
  LONGTAIL_TRACE_SPAN_DETAIL("pipeline.tau_eval", "tau=" + std::to_string(tau));
  LONGTAIL_METRIC_COUNT("pipeline.tau_evaluations", 1);
  TauEvaluation out;
  out.tau = tau;
  auto selected = rules::select_rules(experiment.all_rules, tau);
  out.selected = rules::rule_set_stats(selected);
  const rules::RuleClassifier classifier(std::move(selected), policy);
  out.eval = rules::evaluate(classifier, experiment.data.test);
  out.expansion = rules::expand_unknowns(classifier, experiment.data.unknowns);
  return out;
}

std::vector<TauEvaluation> LongtailPipeline::evaluate_taus(
    const RuleExperiment& experiment, std::span<const double> taus,
    rules::ConflictPolicy policy) {
  LONGTAIL_TRACE_SPAN("pipeline.tau_sweep");
  return util::parallel_map(taus.size(), [&](std::size_t i) {
    return evaluate_tau(experiment, taus[i], policy);
  });
}

std::uint64_t dataset_fingerprint(const synth::Dataset& ds) {
  // Word-wise mixer shared with telemetry::corpus_fingerprint. The mixing
  // sequence below is pinned: bench trajectories track the value from
  // commit to commit, and the determinism test asserts it is identical
  // across thread counts.
  util::FnvMixer mix;

  const auto& ev = ds.corpus.events;
  mix(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) {
    mix(ev.file_column()[i].raw());
    mix(ev.machine_column()[i].raw());
    mix(ev.process_column()[i].raw());
    mix(ev.url_column()[i].raw());
    mix(static_cast<std::uint64_t>(ev.time_column()[i]));
  }
  mix(ds.corpus.files.size());
  for (std::uint32_t f = 0; f < ds.corpus.files.size(); ++f) {
    const auto& meta = ds.corpus.files[f];
    mix(meta.sha.hi);
    mix(meta.sha.lo);
    mix(meta.size);
    mix(meta.is_signed ? meta.signer.raw() + 1 : 0);
    mix(meta.is_signed ? meta.ca.raw() + 1 : 0);
    mix(meta.is_packed ? meta.packer.raw() + 1 : 0);
    // Verdict-relevant evidence: whitelist membership plus the VT report
    // shape (scan window and per-engine detections).
    const model::FileId id{f};
    mix(ds.whitelist.contains(id) ? 1 : 0);
    if (const auto& report = ds.vt.query(id); report.has_value()) {
      mix(static_cast<std::uint64_t>(report->first_scan));
      mix(static_cast<std::uint64_t>(report->last_scan));
      mix(report->detections.size());
      for (const auto& det : report->detections) {
        mix(det.engine);
        mix(static_cast<std::uint64_t>(det.signature_time));
        mix(util::fnv1a64(det.label));
      }
    }
  }
  mix(ds.corpus.urls.size());
  for (const auto& url : ds.corpus.urls) {
    mix(url.domain.raw());
    mix(url.alexa_rank);
  }
  return mix.value();
}

}  // namespace longtail::core
