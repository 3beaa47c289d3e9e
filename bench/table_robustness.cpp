// Degradation-evaluation sweep: replays the pipeline through the
// fault-injection transport (telemetry/transport.hpp) at the named fault
// profiles (off / mild / moderate / severe) and reports how far the
// headline reproduction numbers drift from the fault-free baseline —
// the §IV-A unknown-file share (paper: 83% of distinct files) and unknown
// machine coverage (paper: 69%), and the §VI Mar→Apr rule TP/FP rates at
// tau = 0.1% (Tables XVI/XVII).
//
// Every faulted run is deterministic: the sweep re-generates the moderate
// profile at LONGTAIL_THREADS = 1, 2, 8 and asserts bit-identical dataset
// fingerprints. Results go to BENCH_robustness.json (schema pinned in CI)
// together with the metrics snapshot carrying the telemetry.transport.*
// and telemetry.quarantine.* counters.
#include <utility>
#include <vector>

#include "sweep_common.hpp"

namespace {

using namespace longtail;

struct SweepRun {
  std::string name;
  telemetry::FaultProfile faults;
  telemetry::TransportStats transport;
  telemetry::CollectionStats collection;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  bool conservation = true;
  bench::HeadlineMetrics headline;
};

SweepRun measure(const std::string& name, double scale,
                 const telemetry::FaultProfile& faults) {
  auto profile = synth::paper_calibration(scale);
  profile.faults = faults;

  SweepRun run;
  run.name = name;
  run.faults = faults;

  auto ds = synth::generate_dataset(profile);
  run.transport = ds.transport_stats;
  run.collection = ds.collection_stats;
  run.events = ds.corpus.events.size();
  run.fingerprint = core::dataset_fingerprint(ds);
  // Conservation: every delivered copy is accounted for by exactly one
  // collection counter (on the fault-free path the server sees the raw
  // stream instead of the transport's).
  const std::uint64_t seen = run.collection.total_seen();
  run.conservation = faults.transport_active()
                         ? seen == run.transport.delivered
                         : run.transport.reports_offered == 0;

  const core::LongtailPipeline pipeline(std::move(ds));
  run.headline = bench::measure_headline(pipeline);
  return run;
}

std::string headline_json(const SweepRun& r) {
  return bench::headline_json(r.headline, r.events, r.fingerprint);
}

}  // namespace

int main() {
  util::metrics::set_enabled(true);
  const double scale = bench::bench_scale(0.05);
  bench::print_header(
      "Robustness: headline drift under transport/label faults",
      "Sweeps the named fault profiles through the agent->server transport "
      "and the VT feed.\nPaper baselines: 83% unknown files, 69% unknown "
      "machine coverage (scale-free).");
  std::printf("[longtail] sweep at scale %.2f (LONGTAIL_SCALE to override)\n\n",
              scale);

  const SweepRun baseline = measure("off", scale, telemetry::FaultProfile{});
  std::vector<SweepRun> runs;
  for (const char* name : {"mild", "moderate", "severe"})
    runs.push_back(measure(name, scale, *telemetry::named_fault_profile(name)));

  util::TextTable table({"Profile", "Delivered", "Dup", "Quar", "Stale",
                         "Accepted", "Unk file %", "Unk mach %", "Rule TP %",
                         "Rule FP %"});
  auto add_row = [&](const SweepRun& r) {
    table.add_row({r.name, util::with_commas(r.transport.delivered),
                   util::with_commas(r.collection.dropped_duplicate),
                   util::with_commas(r.collection.quarantined_malformed),
                   util::with_commas(r.collection.dropped_stale),
                   util::with_commas(r.collection.accepted),
                   util::pct(r.headline.unknown_file_pct),
                   util::pct(r.headline.unknown_machine_pct),
                   util::pct(r.headline.rule_tp_rate),
                   util::pct(r.headline.rule_fp_rate)});
  };
  add_row(baseline);
  for (const auto& r : runs) add_row(r);
  std::fputs(table.render().c_str(), stdout);

  bool conservation = baseline.conservation;
  std::string profiles_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    conservation = conservation && r.conservation;
    if (i > 0) profiles_json += ", ";
    const auto transport_json =
        util::json::Object()
            .field("reports_offered", r.transport.reports_offered)
            .field("dropped_offline", r.transport.dropped_offline)
            .field("delivered", r.transport.delivered)
            .field("duplicates", r.transport.duplicates)
            .field("corrupted", r.transport.corrupted)
            .str();
    const auto collection_json =
        util::json::Object()
            .field("accepted", r.collection.accepted)
            .field("dropped_not_executed", r.collection.dropped_not_executed)
            .field("dropped_prevalence_cap",
                   r.collection.dropped_prevalence_cap)
            .field("dropped_whitelisted_url",
                   r.collection.dropped_whitelisted_url)
            .field("dropped_duplicate", r.collection.dropped_duplicate)
            .field("quarantined_malformed", r.collection.quarantined_malformed)
            .field("dropped_stale", r.collection.dropped_stale)
            .str();
    const auto drift_json =
        bench::headline_drift_json(r.headline, baseline.headline);
    profiles_json += util::json::Object()
                         .field("name", std::string_view(r.name))
                         .field("spec", std::string_view(r.faults.spec()))
                         .field("conservation", r.conservation)
                         .raw("transport", transport_json)
                         .raw("collection", collection_json)
                         .raw("headline", headline_json(r))
                         .raw("drift", drift_json)
                         .str();
  }
  profiles_json += "]";

  // Determinism across thread counts: the moderate profile must produce
  // the same dataset at 1, 2, and 8 threads.
  auto det_profile = synth::paper_calibration(scale);
  det_profile.faults = *telemetry::named_fault_profile("moderate");
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
      "\nDrift vs fault-free baseline (percentage points):\n"
      "  mild     unk file %+0.2f, unk mach %+0.2f, TP %+0.2f, FP %+0.2f\n"
      "  moderate unk file %+0.2f, unk mach %+0.2f, TP %+0.2f, FP %+0.2f\n"
      "  severe   unk file %+0.2f, unk mach %+0.2f, TP %+0.2f, FP %+0.2f\n"
      "Conservation (accepted + drops + quarantine == delivered): %s\n"
      "Deterministic across LONGTAIL_THREADS {1,2,8}: %s\n",
      runs[0].headline.unknown_file_pct - baseline.headline.unknown_file_pct,
      runs[0].headline.unknown_machine_pct -
          baseline.headline.unknown_machine_pct,
      runs[0].headline.rule_tp_rate - baseline.headline.rule_tp_rate,
      runs[0].headline.rule_fp_rate - baseline.headline.rule_fp_rate,
      runs[1].headline.unknown_file_pct - baseline.headline.unknown_file_pct,
      runs[1].headline.unknown_machine_pct -
          baseline.headline.unknown_machine_pct,
      runs[1].headline.rule_tp_rate - baseline.headline.rule_tp_rate,
      runs[1].headline.rule_fp_rate - baseline.headline.rule_fp_rate,
      runs[2].headline.unknown_file_pct - baseline.headline.unknown_file_pct,
      runs[2].headline.unknown_machine_pct -
          baseline.headline.unknown_machine_pct,
      runs[2].headline.rule_tp_rate - baseline.headline.rule_tp_rate,
      runs[2].headline.rule_fp_rate - baseline.headline.rule_fp_rate,
      conservation ? "yes" : "NO", deterministic ? "yes" : "NO");

  const auto json = util::json::Object()
                        .field("bench", std::string_view("robustness"))
                        .field("scale", scale)
                        .raw("run", bench::run_manifest_json(
                                        scale, baseline.fingerprint))
                        .raw("baseline", headline_json(baseline))
                        .raw("profiles", profiles_json)
                        .field("conservation", conservation)
                        .field("deterministic", deterministic)
                        .raw("metrics", util::metrics::snapshot_json())
                        .str();
  bench::write_bench_json("BENCH_robustness.json", json);
  return (conservation && deterministic) ? 0 : 1;
}
