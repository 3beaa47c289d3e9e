// Adversarial scenario sweep: replays each named world-level scenario
// (synth/scenario.hpp) — alone and composed with the moderate transport
// fault profile — through the batch pipeline and the streaming serving
// loop, and reports how far the headline reproduction numbers drift from
// the unperturbed baseline, how hard the σ prevalence cap is working, and
// what the serving loop's freshness looks like under burst load.
//
// The interesting acceptance signal is the §VII evasion: the polymorphic
// hash-churn scenario must *reduce* σ-cap saturation and cap drops while
// moving the same raw download volume — the prevalence filter stops
// firing even though the malware distribution never shrank. The sweep
// also re-generates one composed scenario at LONGTAIL_THREADS = 1, 2, 8
// and asserts bit-identical dataset fingerprints. Results go to
// BENCH_scenarios.json (schema pinned in CI).
#include <utility>
#include <vector>

#include "sweep_common.hpp"

namespace {

using namespace longtail;

struct ScenarioRun {
  std::string name;
  synth::ScenarioProfile scenario;
  telemetry::FaultProfile faults;
  bool composed = false;  // scenario x moderate-fault composition
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  bool conservation = true;
  bench::HeadlineMetrics headline;
  bench::SigmaCapStats sigma;
  bench::StreamingReplayStats streaming;
};

ScenarioRun measure(const std::string& name, double scale,
                    const synth::ScenarioProfile& scenario,
                    const telemetry::FaultProfile& faults, bool composed) {
  auto profile = synth::paper_calibration(scale);
  profile.scenario = scenario;
  profile.faults = faults;

  ScenarioRun run;
  run.name = name;
  run.scenario = scenario;
  run.faults = faults;
  run.composed = composed;

  auto ds = synth::generate_dataset(profile);
  run.events = ds.corpus.events.size();
  run.fingerprint = core::dataset_fingerprint(ds);
  const auto& transport = ds.transport_stats;
  run.conservation = faults.transport_active()
                         ? ds.collection_stats.total_seen() ==
                               transport.delivered
                         : transport.reports_offered == 0;

  const core::LongtailPipeline pipeline(std::move(ds));
  run.sigma = bench::measure_sigma_cap(pipeline);
  run.headline = bench::measure_headline(pipeline);
  run.streaming =
      bench::replay_streaming(pipeline.dataset(), pipeline.annotated());
  return run;
}

std::string run_json(const ScenarioRun& r, const ScenarioRun& base) {
  return util::json::Object()
      .field("name", std::string_view(r.name))
      .field("spec", std::string_view(r.scenario.spec()))
      .field("faults", r.faults.any() ? std::string_view(r.faults.spec())
                                      : "none")
      .field("composed", r.composed)
      .field("conservation", r.conservation)
      .raw("headline", bench::headline_json(r.headline, r.events,
                                            r.fingerprint))
      .raw("drift", bench::headline_drift_json(r.headline, base.headline))
      .raw("sigma", bench::sigma_json(r.sigma))
      .raw("streaming", bench::streaming_json(r.streaming))
      .str();
}

}  // namespace

int main() {
  util::metrics::set_enabled(true);
  const double scale = bench::bench_scale(0.02);
  bench::print_header(
      "Scenarios: headline drift under adversarial world stressors",
      "Sweeps the named scenario presets through the generator, alone and\n"
      "composed with the moderate fault profile, measuring batch headline\n"
      "drift, sigma-cap saturation, and streaming freshness under bursts.");
  std::printf("[longtail] sweep at scale %.2f (LONGTAIL_SCALE to override)\n\n",
              scale);

  const auto moderate = *telemetry::named_fault_profile("moderate");
  const ScenarioRun baseline = measure("baseline", scale, {}, {}, false);
  std::vector<ScenarioRun> runs;
  for (const auto name : synth::scenario_preset_names()) {
    const auto sc = *synth::named_scenario_profile(name);
    runs.push_back(measure(std::string(name), scale, sc, {}, false));
    runs.push_back(measure(std::string(name) + "+moderate", scale, sc,
                           moderate, true));
  }

  util::TextTable table({"Scenario", "Events", "Sat files", "Cap drops",
                         "Unk file %", "Unk mach %", "Rule TP %", "Rule FP %",
                         "Peak win", "p99 fresh s"});
  auto add_row = [&](const ScenarioRun& r) {
    table.add_row({r.name, util::with_commas(r.events),
                   util::with_commas(r.sigma.saturated_files),
                   util::with_commas(r.sigma.dropped_prevalence_cap),
                   util::pct(r.headline.unknown_file_pct),
                   util::pct(r.headline.unknown_machine_pct),
                   util::pct(r.headline.rule_tp_rate),
                   util::pct(r.headline.rule_fp_rate),
                   util::with_commas(r.streaming.peak_window_events),
                   util::with_commas(static_cast<std::uint64_t>(
                       r.streaming.freshness.p99_s))});
  };
  add_row(baseline);
  for (const auto& r : runs) add_row(r);
  std::fputs(table.render().c_str(), stdout);

  // §VII evasion check: churn must defeat the prevalence cap (fewer
  // saturated files, fewer cap drops) while raw volume is conserved.
  const ScenarioRun* churn = nullptr;
  for (const auto& r : runs)
    if (r.name == "churn") churn = &r;
  const bool churn_evasion =
      churn != nullptr &&
      churn->sigma.saturated_files < baseline.sigma.saturated_files &&
      churn->sigma.dropped_prevalence_cap <
          baseline.sigma.dropped_prevalence_cap &&
      churn->sigma.total_seen == baseline.sigma.total_seen;

  bool conservation = baseline.conservation;
  bool streaming_conserved = baseline.streaming.conserved;
  for (const auto& r : runs) {
    conservation = conservation && r.conservation;
    streaming_conserved = streaming_conserved && r.streaming.conserved;
  }

  // Determinism across thread counts: the fully-composed scenario over
  // the faulted transport must produce the same dataset at 1, 2, and 8
  // threads.
  auto det_profile = synth::paper_calibration(scale);
  det_profile.scenario = *synth::named_scenario_profile("worst_day");
  det_profile.faults = moderate;
  bool deterministic = true;
  std::uint64_t det_fingerprint = 0;
  for (const unsigned t : {1u, 2u, 8u}) {
    util::set_global_threads(t);
    const auto ds = synth::generate_dataset(det_profile);
    const std::uint64_t fp = core::dataset_fingerprint(ds);
    if (det_fingerprint == 0) det_fingerprint = fp;
    deterministic = deterministic && fp == det_fingerprint;
  }
  util::set_global_threads(util::ThreadPool::default_threads());

  std::printf(
      "\nChurn evasion (saturated files %llu -> %llu, cap drops %llu -> "
      "%llu, raw volume conserved: %s): %s\n"
      "Conservation: %s   Streaming conserved: %s\n"
      "Deterministic across LONGTAIL_THREADS {1,2,8}: %s\n",
      static_cast<unsigned long long>(baseline.sigma.saturated_files),
      static_cast<unsigned long long>(
          churn != nullptr ? churn->sigma.saturated_files : 0),
      static_cast<unsigned long long>(baseline.sigma.dropped_prevalence_cap),
      static_cast<unsigned long long>(
          churn != nullptr ? churn->sigma.dropped_prevalence_cap : 0),
      (churn != nullptr && churn->sigma.total_seen == baseline.sigma.total_seen)
          ? "yes"
          : "NO",
      churn_evasion ? "yes" : "NO", conservation ? "yes" : "NO",
      streaming_conserved ? "yes" : "NO", deterministic ? "yes" : "NO");

  std::string scenarios_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) scenarios_json += ", ";
    scenarios_json += run_json(runs[i], baseline);
  }
  scenarios_json += "]";

  const auto json =
      util::json::Object()
          .field("bench", std::string_view("scenarios"))
          .field("scale", scale)
          .raw("run", bench::run_manifest_json(scale, baseline.fingerprint))
          .raw("baseline",
               util::json::Object()
                   .raw("headline",
                        bench::headline_json(baseline.headline,
                                             baseline.events,
                                             baseline.fingerprint))
                   .raw("sigma", bench::sigma_json(baseline.sigma))
                   .raw("streaming",
                        bench::streaming_json(baseline.streaming))
                   .str())
          .raw("scenarios", scenarios_json)
          .field("churn_evasion_demonstrated", churn_evasion)
          .field("conservation", conservation)
          .field("streaming_conserved", streaming_conserved)
          .field("deterministic", deterministic)
          .raw("metrics", util::metrics::snapshot_json())
          .str();
  bench::write_bench_json("BENCH_scenarios.json", json);
  return (conservation && streaming_conserved && deterministic &&
          churn_evasion)
             ? 0
             : 1;
}
