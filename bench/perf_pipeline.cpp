// google-benchmark microbenchmarks for the data pipeline: corpus
// generation, collection-server filtering, index construction, and
// labeling/annotation throughput.
//
// In addition to the micro suite, main() times the full pipeline
// end-to-end under LONGTAIL_THREADS = 1, 2, 8 (plus the environment's
// setting) and writes the results to BENCH_pipeline.json so the perf
// trajectory — wall time, events/sec, parallel speedup, and the
// determinism fingerprint — is tracked from commit to commit.
// LONGTAIL_BENCH_MICRO=0 skips the micro suite (CI uses this to get the
// trajectory quickly); LONGTAIL_BENCH_JSON overrides the output path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/streaming.hpp"
#include "bench_common.hpp"
#include "core/longtail.hpp"
#include "deploy/online.hpp"
#include "telemetry/streaming.hpp"

namespace {

using namespace longtail;

void BM_GenerateDataset(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto ds = synth::generate_dataset(scale);
    events = ds.corpus.events.size();
    benchmark::DoNotOptimize(ds);
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_GenerateDataset)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// The §II-A rules over the collected corpus, through the streaming
// server's trusted path as one window; building the deliveries is untimed.
void BM_CollectionFilter(benchmark::State& state) {
  const auto ds = synth::generate_dataset(0.05);
  const auto& events = ds.corpus.events;
  std::vector<telemetry::DeliveredReport> delivered;
  delivered.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    delivered.push_back(telemetry::DeliveredReport{
        events[i], static_cast<std::uint64_t>(i), events[i].time(), 0, false});
  for (auto _ : state) {
    telemetry::StreamingConfig cfg;
    cfg.policy.sigma = 20;
    cfg.num_files = ds.corpus.files.size();
    cfg.trusted = true;
    telemetry::StreamingCollectionServer server(std::move(cfg),
                                                ds.corpus.urls);
    std::vector<telemetry::EventWindow> windows;
    server.ingest(delivered, windows);
    server.finish(windows);
    benchmark::DoNotOptimize(windows);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(ds.corpus.events.size()) * state.iterations());
}
BENCHMARK(BM_CollectionFilter)->Unit(benchmark::kMillisecond);

void BM_BuildIndex(benchmark::State& state) {
  const auto ds = synth::generate_dataset(0.05);
  for (auto _ : state) {
    telemetry::CorpusIndex index(ds.corpus);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(ds.corpus.events.size()) * state.iterations());
}
BENCHMARK(BM_BuildIndex)->Unit(benchmark::kMillisecond);

void BM_Annotate(benchmark::State& state) {
  const auto ds = synth::generate_dataset(0.05);
  for (auto _ : state) {
    auto annotated = analysis::annotate(ds.corpus, ds.whitelist, ds.vt);
    benchmark::DoNotOptimize(annotated);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(ds.corpus.files.size()) * state.iterations());
}
BENCHMARK(BM_Annotate)->Unit(benchmark::kMillisecond);

void BM_MonthlySummary(benchmark::State& state) {
  const auto ds = synth::generate_dataset(0.05);
  const auto annotated = analysis::annotate(ds.corpus, ds.whitelist, ds.vt);
  for (auto _ : state) {
    auto summary = analysis::monthly_summary(annotated);
    benchmark::DoNotOptimize(summary);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(ds.corpus.events.size()) * state.iterations());
}
BENCHMARK(BM_MonthlySummary)->Unit(benchmark::kMillisecond);

void BM_TransitionAnalysis(benchmark::State& state) {
  const auto ds = synth::generate_dataset(0.05);
  const auto annotated = analysis::annotate(ds.corpus, ds.whitelist, ds.vt);
  for (auto _ : state) {
    auto curves = analysis::transition_analysis(annotated);
    benchmark::DoNotOptimize(curves);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(ds.corpus.events.size()) * state.iterations());
}
BENCHMARK(BM_TransitionAnalysis)->Unit(benchmark::kMillisecond);

// One end-to-end pipeline pass; returns per-stage wall times and enough
// output to assert thread-count independence.
struct TrajectoryRun {
  unsigned threads = 0;
  double generate_ms = 0;
  double resolve_events_ms = 0;  // event-resolution slice of generate_ms
  double annotate_ms = 0;
  double analysis_ms = 0;
  double experiments_ms = 0;
  double eval_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t analysis_checksum = 0;
  std::uint64_t eval_checksum = 0;

  [[nodiscard]] double total_ms() const {
    return generate_ms + annotate_ms + analysis_ms + experiments_ms + eval_ms;
  }
};

// The measurement-study bundle: the §IV/§V passes that now run on the
// shared corpus-scan layer. The checksum pins their outputs across thread
// counts.
std::uint64_t run_analysis_bundle(const analysis::AnnotatedCorpus& a) {
  std::uint64_t sum = 0;
  const auto monthly = analysis::monthly_summary(a);
  sum = sum * 1'000'003 + monthly.overall.events + monthly.overall.files;
  const auto rates = analysis::signing_rates(a);
  sum = sum * 1'000'003 + rates.benign.files + rates.malicious.files;
  const auto prevalence = analysis::prevalence_distributions(a);
  sum = sum * 1'000'003 + prevalence.all.size();
  const auto popularity = analysis::domain_popularity(a);
  sum = sum * 1'000'003 + popularity.overall.size();
  const auto transitions = analysis::transition_analysis(a);
  sum = sum * 1'000'003 + transitions.adware.transitioned +
        transitions.dropper.initiator_machines;
  const auto behavior = analysis::malicious_process_behavior(a);
  sum = sum * 1'000'003 + behavior.overall.machines;
  return sum;
}

TrajectoryRun run_trajectory_pass(double scale, unsigned threads) {
  util::set_global_threads(threads);
  TrajectoryRun run;
  run.threads = threads;

  synth::Dataset dataset;
  // The resolve_events slice comes from the stage histogram (metrics are
  // enabled for the trajectory): delta around the generate call isolates
  // this pass from the accumulated snapshot.
  const double resolve_before =
      util::metrics::histogram("synth.resolve_events_ms").sum_ms();
  run.generate_ms = bench::time_ms([&] {
    dataset = synth::generate_dataset(synth::paper_calibration(scale));
  });
  run.resolve_events_ms =
      util::metrics::histogram("synth.resolve_events_ms").sum_ms() -
      resolve_before;
  run.events = dataset.corpus.events.size();
  run.fingerprint = core::dataset_fingerprint(dataset);

  std::unique_ptr<core::LongtailPipeline> pipeline;
  run.annotate_ms = bench::time_ms([&] {
    pipeline =
        std::make_unique<core::LongtailPipeline>(std::move(dataset));
  });

  run.analysis_ms = bench::time_ms([&] {
    run.analysis_checksum = run_analysis_bundle(pipeline->annotated());
  });

  // The §VI fan-out: one rule experiment per consecutive month window.
  std::vector<std::pair<model::Month, model::Month>> windows;
  for (std::size_t m = 0; m + 1 < model::kNumCollectionMonths; ++m)
    windows.emplace_back(static_cast<model::Month>(m),
                         static_cast<model::Month>(m + 1));
  std::vector<core::RuleExperiment> experiments;
  run.experiments_ms = bench::time_ms(
      [&] { experiments = pipeline->run_rule_experiments(windows); });

  const std::vector<double> taus = {0.0, 0.001};
  run.eval_ms = bench::time_ms([&] {
    for (const auto& exp : experiments) {
      const auto evals = core::LongtailPipeline::evaluate_taus(exp, taus);
      for (const auto& eval : evals) {
        run.eval_checksum = run.eval_checksum * 1'000'003 +
                            eval.eval.true_positives * 31 +
                            eval.eval.false_positives * 7 +
                            eval.expansion.labeled_malicious;
      }
    }
  });
  return run;
}

// ---- streaming section -------------------------------------------------
//
// Sustained streaming throughput: the collected corpus is re-ingested
// through the *untrusted* streaming path (dedup set + reorder buffer
// exercised per report) by `collect_in_order`, kCollectChunk reports per
// ingest; the closed windows feed the incremental analytics and the
// online serving loop. The policy is pass-through (unbounded sigma, no
// whitelist), so every event survives ingest and the serving loop sees
// exactly the corpus replay — freshness percentiles are then a pure
// function of the workload. Runs at a pinned thread count as part of the
// fixed workload whose metrics the bench gate compares exactly.
std::string run_streaming_section(const synth::Dataset& dataset) {
  const auto annotated =
      analysis::annotate(dataset.corpus, dataset.whitelist, dataset.vt);
  const auto& events = dataset.corpus.events;
  const std::size_t n = events.size();
  const auto window_s = telemetry::StreamingConfig::window_from_env();

  telemetry::StreamingConfig cfg;
  cfg.policy.sigma = std::numeric_limits<std::uint32_t>::max();
  cfg.window_s = window_s;
  cfg.num_files = dataset.corpus.files.size();
  cfg.trusted = false;
  telemetry::StreamingCollectionServer server(std::move(cfg),
                                              dataset.corpus.urls);

  std::vector<telemetry::EventWindow> windows;
  const double ingest_ms = bench::time_ms(
      [&] { windows = telemetry::collect_in_order(server, events); });
  std::uint64_t accepted = 0;
  for (const auto& w : windows) accepted += w.events.size();

  // Incremental analytics: absorb every window and snapshot at the end.
  analysis::StreamingAnalytics analytics(dataset.corpus);
  analysis::MonthlySummary monthly;
  analysis::SigningRates rates;
  analysis::PrevalenceDistributions prevalence;
  analysis::MachineCoverage coverage;
  const double analytics_ms = bench::time_ms([&] {
    for (const auto& w : windows) analytics.absorb(w);
    monthly = analytics.monthly(annotated);
    rates = analytics.signing(annotated);
    prevalence = analytics.prevalence(annotated);
    coverage = analytics.coverage(annotated);
  });
  // Untimed cross-check: every field of every snapshot equals the batch
  // pass over the same corpus — the bit-identity the streaming layer
  // guarantees.
  const bool snapshots_consistent =
      monthly == analysis::monthly_summary(annotated) &&
      rates == analysis::signing_rates(annotated) &&
      prevalence == analysis::prevalence_distributions(annotated) &&
      coverage == analysis::machine_coverage(annotated);

  // Serving loop: window-by-window online labeling with freshness
  // accounting (report-to-labeled latency, exact percentiles).
  deploy::OnlineLabeler labeler(dataset, annotated, {});
  const double serve_ms = bench::time_ms([&] {
    for (const auto& w : windows) labeler.serve(w);
    labeler.finish();
  });
  const auto& fresh = labeler.freshness();

  const double ingest_rate =
      ingest_ms > 0 ? 1000.0 * static_cast<double>(n) / ingest_ms : 0.0;
  std::printf(
      "[longtail] streaming: %llu events, %zu windows of %llds — ingest "
      "%.1f ms (%.0f events/s), analytics %.1f ms, serve %.1f ms\n"
      "[longtail] freshness: %llu labeled / %llu pending, p50 %.0fs "
      "p90 %.0fs p99 %.0fs\n",
      static_cast<unsigned long long>(n), windows.size(),
      static_cast<long long>(window_s), ingest_ms, ingest_rate, analytics_ms,
      serve_ms, static_cast<unsigned long long>(fresh.files_labeled),
      static_cast<unsigned long long>(fresh.files_pending), fresh.p50_s,
      fresh.p90_s, fresh.p99_s);

  return util::json::Object()
      .field("window_s", static_cast<std::uint64_t>(window_s))
      .field("chunk", static_cast<std::uint64_t>(telemetry::kCollectChunk))
      .field("windows", static_cast<std::uint64_t>(windows.size()))
      .field("events_in", static_cast<std::uint64_t>(n))
      .field("events_accepted", accepted)
      .field("conserved", server.conserved())
      .field("ingest_ms", ingest_ms)
      .field("ingest_events_per_sec", ingest_rate)
      .field("analytics_ms", analytics_ms)
      .field("snapshots_consistent", snapshots_consistent)
      .field("serve_ms", serve_ms)
      .field("files_reported", fresh.files_reported)
      .field("files_labeled", fresh.files_labeled)
      .field("files_pending", fresh.files_pending)
      .field("freshness_p50_s", fresh.p50_s)
      .field("freshness_p90_s", fresh.p90_s)
      .field("freshness_p99_s", fresh.p99_s)
      .field("freshness_max_s", fresh.max_s)
      .field("freshness_mean_s", fresh.mean_s)
      .str();
}

void emit_trajectory() {
  const double scale = bench::bench_scale(0.05);
  // The canonical thread fan-out. The metrics snapshot is captured after
  // these passes (plus a fixed-thread cache roundtrip) and BEFORE the
  // machine-dependent "configured" pass below, so every counter in the
  // snapshot is a pure function of the workload — bench_compare gates
  // them exactly against the committed baseline regardless of the
  // machine's core count.
  const std::vector<unsigned> thread_counts = {1, 2, 8};
  const unsigned configured = util::ThreadPool::default_threads();

  std::printf("\n[longtail] perf trajectory at scale %.2f\n", scale);
  std::vector<TrajectoryRun> runs;
  auto run_pass = [&](unsigned t) {
    runs.push_back(run_trajectory_pass(scale, t));
    const auto& r = runs.back();
    std::printf(
        "  threads=%-2u total %8.1f ms (gen %7.1f, annotate %6.1f, "
        "analysis %6.1f, experiments %7.1f, eval %6.1f)  %9.0f events/s\n",
        r.threads, r.total_ms(), r.generate_ms, r.annotate_ms, r.analysis_ms,
        r.experiments_ms, r.eval_ms,
        1000.0 * static_cast<double>(r.events) / r.total_ms());
  };
  for (const unsigned t : thread_counts) run_pass(t);

  const TrajectoryRun serial = runs.front();

  // Binary corpus cache: save/load round-trip at the trajectory scale.
  // The load must beat regeneration (serial generate_ms) for the
  // LONGTAIL_CORPUS_CACHE path to be worth taking. Runs at a pinned
  // thread count: it is part of the fixed workload whose counters the
  // bench gate compares exactly.
  util::set_global_threads(2);
  const auto cache_file =
      (std::filesystem::temp_directory_path() / "longtail_perf_cache.bin")
          .string();
  auto cached = synth::generate_dataset(synth::paper_calibration(scale));
  const double save_ms =
      bench::time_ms([&] { synth::save_dataset_binary(cached, cache_file); });
  synth::Dataset reloaded;
  const double load_ms = bench::time_ms(
      [&] { reloaded = synth::load_dataset_binary(cache_file); });
  const bool cache_roundtrip =
      core::dataset_fingerprint(reloaded) == serial.fingerprint;
  std::filesystem::remove(cache_file);
  std::printf(
      "[longtail] dataset cache: save %.1f ms, load %.1f ms "
      "(generate %.1f ms, %.1fx), fingerprint %s\n",
      save_ms, load_ms, serial.generate_ms,
      load_ms > 0 ? serial.generate_ms / load_ms : 0.0,
      cache_roundtrip ? "preserved" : "MISMATCH");

  // Streaming ingest -> incremental analytics -> serving loop, still at
  // the pinned thread count: the last leg of the fixed workload.
  const std::string streaming_json = run_streaming_section(cached);

  // End of the fixed workload: fold the profile summary in and capture
  // the snapshot now, before any machine-dependent pass can perturb it.
  // Rebuilding the pool first is a drain barrier — workers join only
  // after the queue empties, so every pool task's span has closed and the
  // profile.pool.task_ms count in the snapshot is exact.
  util::set_global_threads(2);
  util::profile::publish_metrics();
  const std::string metrics_snapshot = util::metrics::snapshot_json();

  // The environment's own thread setting, when it isn't one of the
  // canonical counts: measured for the wall-clock trajectory only.
  if (configured > 1 &&
      std::find(thread_counts.begin(), thread_counts.end(), configured) ==
          thread_counts.end())
    run_pass(configured);
  util::set_global_threads(util::ThreadPool::default_threads());

  bool deterministic = true;
  double best_total = serial.total_ms();
  double best_resolve = serial.resolve_events_ms;
  for (const auto& r : runs) {
    deterministic = deterministic && r.fingerprint == serial.fingerprint &&
                    r.analysis_checksum == serial.analysis_checksum &&
                    r.eval_checksum == serial.eval_checksum &&
                    r.events == serial.events;
    best_total = std::min(best_total, r.total_ms());
    if (r.resolve_events_ms > 0)
      best_resolve = std::min(best_resolve, r.resolve_events_ms);
  }
  const double resolve_events_speedup =
      best_resolve > 0 ? serial.resolve_events_ms / best_resolve : 0.0;

  std::string runs_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    if (i > 0) runs_json += ", ";
    char fp[32];
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    runs_json += util::json::Object()
                     .field("threads", r.threads)
                     .field("load_path", std::string_view("generate"))
                     .field("generate_ms", r.generate_ms)
                     .field("resolve_events_ms", r.resolve_events_ms)
                     .field("annotate_ms", r.annotate_ms)
                     .field("analysis_ms", r.analysis_ms)
                     .field("experiments_ms", r.experiments_ms)
                     .field("eval_ms", r.eval_ms)
                     .field("total_ms", r.total_ms())
                     .field("events", r.events)
                     .field("events_per_sec",
                            1000.0 * static_cast<double>(r.events) /
                                r.total_ms())
                     .field("fingerprint", std::string_view(fp))
                     .str();
  }
  runs_json += "]";

  // Per-stage attribution: the metrics snapshot carries stage timing
  // histograms and event counters accumulated across all trajectory
  // passes (see docs/observability.md for the name scheme).
  const auto json =
      util::json::Object()
          .field("bench", std::string_view("pipeline"))
          .field("scale", scale)
          .field("hardware_concurrency",
                 static_cast<unsigned>(std::thread::hardware_concurrency()))
          .raw("run", bench::run_manifest_json(scale, serial.fingerprint))
          .raw("runs", runs_json)
          .field("serial_total_ms", serial.total_ms())
          .field("best_total_ms", best_total)
          .field("speedup", serial.total_ms() / best_total)
          .field("resolve_events_speedup", resolve_events_speedup)
          .field("deterministic", deterministic)
          .field("dataset_save_ms", save_ms)
          .field("dataset_load_ms", load_ms)
          .field("dataset_load_speedup",
                 load_ms > 0 ? serial.generate_ms / load_ms : 0.0)
          .field("dataset_cache_roundtrip", cache_roundtrip)
          .raw("streaming", streaming_json)
          .field("max_rss_mb", bench::max_rss_mb())
          .raw("metrics", metrics_snapshot)
          .str();
  bench::write_bench_json("BENCH_pipeline.json", json);
  std::printf("[longtail] speedup %.2fx (resolve_events %.2fx), "
              "deterministic across thread counts: %s\n",
              serial.total_ms() / best_total, resolve_events_speedup,
              deterministic ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* micro = std::getenv("LONGTAIL_BENCH_MICRO");
  if (micro == nullptr || std::string_view(micro) != "0")
    benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The trajectory always carries per-stage metrics and the profile
  // layer (CPU span attribution, pool busy accounting, RSS sampler);
  // LONGTAIL_TRACE=path additionally writes a Chrome trace of the same
  // passes at exit, with the sampler's counter series folded in.
  util::metrics::set_enabled(true);
  util::profile::set_enabled(true);
  util::profile::Sampler sampler;  // stops (and emits) before trace flush
  emit_trajectory();
  sampler.stop();
  return 0;
}
