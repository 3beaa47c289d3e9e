// Benchmark harness for the longtail reproduction. Two workloads drive the
// library through its public calls, and the harness times every call into
// a layer from outside, with steady_clock:
//
//   study_batch   the measurement study on one generated corpus, as a
//                 core::LongtailPipeline runs it: annotate -> analyze ->
//                 rules -> evaluate, repeated.
//   stream_serve  five corpora replayed open-loop, one after another,
//                 through streaming ingest, incremental analytics and the
//                 online labeler, each collection period compressed into a
//                 fifth of the run.
//
// Both generate their corpora with synth::generate_dataset in set-up,
// which is timed too.
//
//   longtail_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones and, with --trace-file, writes the layer
// spans as a Chrome trace. README.md describes every metric.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/annotated.hpp"
#include "analysis/coverage.hpp"
#include "analysis/domains.hpp"
#include "analysis/malproc.hpp"
#include "analysis/monthly.hpp"
#include "analysis/prevalence.hpp"
#include "analysis/signers.hpp"
#include "analysis/streaming.hpp"
#include "analysis/transitions.hpp"
#include "core/pipeline.hpp"
#include "deploy/online.hpp"
#include "synth/generator.hpp"
#include "telemetry/streaming.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace longtail;
using Clock = std::chrono::steady_clock;

// Worker threads for every workload. Fixed, so a run measures the same
// parallel structure on any machine; two keeps the parallel paths in play
// without depending on how many idle cores a shared host happens to have.
constexpr unsigned kThreads = 2;
// Set-up runs this many times per run and setup_s is the median;
// stream_serve sets up one world per lap.
constexpr std::size_t kSetups = 5;

constexpr double kStudyScale = 0.02;
constexpr double kStreamScale = 0.05;
// stream_serve: the feed sends one chunk per tick, and windows are one day
// of event time. The library's default window is seven days, but then one
// window in six retrains and p90 falls among a run's 30 retrain windows,
// whose costs span 3x: it spread by 14% across ten seeds. With day windows
// p90 is a percentile over 1,200 ordinary windows.
constexpr double kTickMs = 1.0;
constexpr model::Timestamp kWindowS = model::kSecondsPerDay;

// The six §VI-D rule experiments: train on one month, test on the next.
constexpr auto kRuleWindows = [] {
  std::array<std::pair<model::Month, model::Month>,
             model::kNumCollectionMonths - 1>
      w{};
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = {static_cast<model::Month>(i), static_cast<model::Month>(i + 1)};
  return w;
}();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_file;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

synth::CalibrationProfile profile_for(double scale, std::uint64_t seed,
                                      std::uint64_t k) {
  auto profile = synth::paper_calibration(scale);
  profile.seed = splitmix64(seed * kSetups + k);
  return profile;
}

// Reports a failed end-of-run check on stderr.
bool check(const char* what, bool ok) {
  if (!ok) std::fprintf(stderr, "longtail_bench: check failed: %s\n", what);
  return ok;
}

// ---- digests of results -----------------------------------------------

// A digest mixes every field of a result, doubles by their bits, so two
// results digest alike only when they are equal.
void mix_bits(util::FnvMixer& m, double v) {
  m(std::bit_cast<std::uint64_t>(v));
}

void mix_row(util::FnvMixer& m, const analysis::MonthlyRow& r) {
  for (const std::uint64_t v :
       {r.machines, r.events, r.processes, r.files, r.urls})
    m(v);
  for (const double v :
       {r.proc_benign, r.proc_likely_benign, r.proc_malicious,
        r.proc_likely_malicious, r.file_benign, r.file_likely_benign,
        r.file_malicious, r.file_likely_malicious, r.url_benign,
        r.url_malicious})
    mix_bits(m, v);
}

void mix_row(util::FnvMixer& m, const analysis::SignedRateRow& r) {
  m(r.files);
  mix_bits(m, r.signed_pct);
  m(r.browser_files);
  mix_bits(m, r.browser_signed_pct);
}

void mix_row(util::FnvMixer& m, const analysis::ProcessBehaviorRow& r) {
  for (const std::uint64_t v : {r.processes, r.machines, r.unknown_files,
                                r.benign_files, r.malicious_files})
    m(v);
  mix_bits(m, r.infected_machines_pct);
  for (const double v : r.type_pct) mix_bits(m, v);
}

void mix_row(util::FnvMixer& m, const deploy::MonthlyDeployStats& r) {
  for (const std::uint64_t v :
       {r.events, r.decided_malicious, r.decided_benign, r.rejected,
        r.unmatched, r.true_positives, r.false_positives,
        r.final_malicious_decided, r.final_benign_decided})
    m(v);
  m(r.rules_active);
  m(r.training_instances);
}

// A CDF by its size and 33 evenly spaced quantiles.
void mix_cdf(util::FnvMixer& m, const util::EmpiricalCdf& cdf) {
  m(cdf.size());
  for (int i = 0; i <= 32; ++i) mix_bits(m, cdf.quantile(i / 32.0));
}

std::uint64_t digest(const analysis::MonthlySummary& s) {
  util::FnvMixer m;
  for (const auto& row : s.months) mix_row(m, row);
  mix_row(m, s.overall);
  return m.value();
}

std::uint64_t digest(const analysis::SigningRates& s) {
  util::FnvMixer m;
  for (const auto& row : s.per_type) mix_row(m, row);
  for (const auto* row : {&s.benign, &s.unknown, &s.malicious})
    mix_row(m, *row);
  return m.value();
}

std::uint64_t digest(const analysis::PrevalenceDistributions& p) {
  util::FnvMixer m;
  for (const auto* cdf : {&p.all, &p.benign, &p.malicious, &p.unknown})
    mix_cdf(m, *cdf);
  mix_bits(m, p.prevalence_one_fraction);
  mix_bits(m, p.at_cap_fraction);
  return m.value();
}

std::uint64_t digest(const analysis::MachineCoverage& c) {
  util::FnvMixer m;
  for (const std::uint64_t v : c.machines) m(v);
  m(c.active_machines);
  return m.value();
}

std::uint64_t digest(const std::vector<deploy::MonthlyDeployStats>& months) {
  util::FnvMixer m;
  m(months.size());
  for (const auto& row : months) mix_row(m, row);
  return m.value();
}

std::uint64_t digest(const deploy::FreshnessStats& f) {
  util::FnvMixer m;
  for (const std::uint64_t v :
       {f.files_reported, f.files_labeled, f.files_pending})
    m(v);
  for (const double v : {f.p50_s, f.p90_s, f.p99_s, f.max_s, f.mean_s})
    mix_bits(m, v);
  return m.value();
}

// ---- layers and spans -------------------------------------------------

enum Layer : std::size_t {
  kAnnotate,
  kAnalyze,
  kRules,
  kEvaluate,
  kIngest,
  kAnalytics,
  kServe,
  kRetrain,
  kNumLayers,
};
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "annotate", "analyze",   "rules", "evaluate",
    "ingest",   "analytics", "serve", "retrain"};

struct Span {
  const char* name;
  std::uint32_t op;
  Clock::time_point begin, end;
};

// Busy time and call count per layer over the measured phase, from the
// harness's own clock reads around each call into the library. Spans are
// kept only when tracing.
class Layers {
 public:
  explicit Layers(bool tracing) : tracing_(tracing) {}

  template <typename Fn>
  void call(Layer layer, Fn&& fn) {
    const auto begin = Clock::now();
    fn();
    record(layer, begin, Clock::now());
  }
  void record(Layer layer, Clock::time_point begin, Clock::time_point end) {
    busy_ms_[layer] += ms_between(begin, end);
    ++calls_[layer];
    if (tracing_) spans_.push_back({kLayerNames[layer], op_, begin, end});
  }
  void record_op(const char* name, Clock::time_point begin,
                 Clock::time_point end) {
    if (tracing_) spans_.push_back({name, op_, begin, end});
    ++op_;
  }

  [[nodiscard]] double busy_ms(Layer l) const { return busy_ms_[l]; }
  [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[l]; }
  [[nodiscard]] double total_busy_ms() const {
    double sum = 0;
    for (const double ms : busy_ms_) sum += ms;
    return sum;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool tracing_;
  std::uint32_t op_ = 0;
  std::array<double, kNumLayers> busy_ms_{};
  std::array<std::uint64_t, kNumLayers> calls_{};
  std::vector<Span> spans_;
};

// Chrome trace of the measured phase: one complete event per span, the
// op index as the thread lane's argument.
void write_trace(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\": [", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %u}}",
                 i == 0 ? "" : ",", s.name,
                 ms_between(origin, s.begin) * 1000.0,
                 ms_between(s.begin, s.end) * 1000.0, s.op);
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

// ---- result -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Per-layer metrics a workload computes beside the layer clocks. Every
// workload reports all of them, 0 where it has no such layer.
constexpr std::array<std::pair<const char*, const char*>, 8> kLayerExtras = {{
    {"generate.setup_ms", "ms"},
    {"generate.events", "count"},
    {"collect.accept_pct", "%"},
    {"rules.learned", "count"},
    {"evaluate.expand_pct", "%"},
    {"serve.decided_pct", "%"},
    {"feed.late_pct", "%"},
    {"feed.backlog_max", "count"},
}};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> latencies_ms;  // one per op (batch) or window (stream)
  double wall_ms = 0;                // measured phase
  std::map<std::string, double> extra;  // keyed by kLayerExtras names
};

void print_result(const Result& r, const Layers& layers, bool trace) {
  std::vector<Metric> metrics;
  if (!trace) {
    metrics.push_back({"latency_p90_ms", quantile(r.latencies_ms, 0.9), "ms"});
    metrics.push_back({"setup_s", quantile(r.setup_s, 0.5), "s"});
  } else {
    const double wall = r.wall_ms > 0 ? r.wall_ms : 1.0;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      const auto layer = static_cast<Layer>(l);
      const std::string name = kLayerNames[l];
      metrics.push_back(
          {name + ".busy_pct", 100.0 * layers.busy_ms(layer) / wall, "%"});
      metrics.push_back({name + ".calls",
                         static_cast<double>(layers.calls(layer)), "count"});
    }
    metrics.push_back(
        {"outside_pct", 100.0 * (wall - layers.total_busy_ms()) / wall, "%"});
    metrics.push_back(
        {"ops", static_cast<double>(r.attempted), "count"});
    for (const auto& [name, unit] : kLayerExtras) {
      const auto it = r.extra.find(name);
      metrics.push_back({name, it == r.extra.end() ? 0.0 : it->second, unit});
    }
  }

  std::string json = "{\"correct\": ";
  json += r.correct && r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Runs setup(i) for i < kSetups, recording each duration; returns the
// results in order.
template <typename Fn>
auto timed_setups(Result& r, Fn&& setup) {
  std::vector<decltype(setup(0))> out;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto begin = Clock::now();
    out.push_back(setup(i));
    r.setup_s.push_back(ms_between(begin, Clock::now()) / 1000.0);
  }
  return out;
}

// ---- set-up: the generate layer --------------------------------------

// Both workloads generate their corpora in set-up, one
// synth::generate_dataset call per corpus, timed like a layer call.
struct Generator {
  std::vector<double> ms;
  double events = 0, seen = 0, accepted = 0;

  synth::Dataset operator()(const synth::CalibrationProfile& profile) {
    const auto begin = Clock::now();
    auto ds = synth::generate_dataset(profile);
    ms.push_back(ms_between(begin, Clock::now()));
    events += static_cast<double>(ds.corpus.events.size());
    seen += static_cast<double>(ds.collection_stats.total_seen());
    accepted += static_cast<double>(ds.collection_stats.accepted);
    return ds;
  }

  void report(Result& r) const {
    r.extra["generate.setup_ms"] = quantile(ms, 0.5);
    r.extra["generate.events"] = events / static_cast<double>(ms.size());
    r.extra["collect.accept_pct"] = seen > 0 ? 100.0 * accepted / seen : 0.0;
  }
};

// ---- study_batch ------------------------------------------------------

struct StudyOutput {
  std::uint64_t checksum = 0;
  std::uint64_t rules = 0;
  std::uint64_t unknowns = 0;
  std::uint64_t unknowns_labeled = 0;
  bool consistent = true;
};

// The analysis bundle of the measurement study (Tables I, III, VI, XII,
// Figs 2, 5), every value folded into one digest.
std::uint64_t analyze(const analysis::AnnotatedCorpus& a,
                      bool& consistent) {
  util::FnvMixer m;
  const auto monthly = analysis::monthly_summary(a);
  consistent = consistent && monthly.overall.events == a.corpus->events.size();
  m(digest(monthly));
  m(digest(analysis::signing_rates(a)));
  m(digest(analysis::prevalence_distributions(a)));
  const auto popularity = analysis::domain_popularity(a);
  for (const auto* top :
       {&popularity.overall, &popularity.benign, &popularity.malicious}) {
    m(top->size());
    for (const auto& [domain, machines] : *top) {
      m(util::fnv1a64(domain));
      m(machines);
    }
  }
  const auto transitions = analysis::transition_analysis(a);
  for (const auto* curve : {&transitions.benign, &transitions.adware,
                            &transitions.pup, &transitions.dropper}) {
    m(curve->initiator_machines);
    m(curve->transitioned);
    for (const double v : curve->cdf_by_day) mix_bits(m, v);
  }
  const auto behavior = analysis::malicious_process_behavior(a);
  for (const auto& row : behavior.per_type) mix_row(m, row);
  mix_row(m, behavior.overall);
  return m.value();
}

// One study, as a user of core::LongtailPipeline runs it on a generated
// corpus: the pipeline adopts and annotates it, the analyses read the
// annotation, the library fans the rule experiments out (feature
// extraction then PART learning, one task per window), and every
// experiment is evaluated at two τ.
StudyOutput study(synth::Dataset ds, Layers& layers) {
  StudyOutput out;
  std::optional<core::LongtailPipeline> pipeline;
  layers.call(kAnnotate, [&] { pipeline.emplace(std::move(ds)); });
  const auto& a = pipeline->annotated();
  out.consistent =
      a.labels.file_verdicts.size() == pipeline->dataset().corpus.files.size();

  util::FnvMixer m;
  layers.call(kAnalyze, [&] { m(analyze(a, out.consistent)); });

  std::vector<core::RuleExperiment> exps;
  layers.call(kRules,
              [&] { exps = pipeline->run_rule_experiments(kRuleWindows); });

  const std::array<double, 2> taus = {0.0, 0.001};
  layers.call(kEvaluate, [&] {
    for (const auto& exp : exps) {
      out.rules += exp.all_rules.size();
      out.consistent = out.consistent && !exp.data.test.empty();
      m(exp.all_rules.size());
      for (const auto& e : core::LongtailPipeline::evaluate_taus(exp, taus)) {
        const auto& ev = e.eval;
        const auto& ex = e.expansion;
        for (const std::uint64_t v :
             {ev.matched_malicious, ev.matched_benign, ev.rejected,
              ev.unmatched, ev.true_positives, ev.false_negatives,
              ev.false_positives, ev.true_negatives, ex.total_unknowns,
              ex.labeled_malicious, ex.labeled_benign, ex.rejected})
          m(v);
        m(e.selected.total);
        m(e.selected.benign_rules);
        m(e.selected.malicious_rules);
        m(ev.fp_rules.size());
        out.consistent =
            out.consistent && ex.matched() <= ex.total_unknowns;
        out.unknowns += ex.total_unknowns;
        out.unknowns_labeled += ex.matched();
      }
    }
  });
  out.checksum = m.value();
  return out;
}

Result run_study_batch(const Options& opt, Layers& layers) {
  Result r;
  const auto profile = profile_for(kStudyScale, opt.seed, 0);
  // Set-up: generate the corpus the study runs on.
  Generator generate;
  const auto ds = std::move(
      timed_setups(r, [&](std::size_t) { return generate(profile); }).back());

  std::uint64_t reference = 0;
  double rules = 0, unknowns = 0, labeled = 0;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < deadline) {
    // The pipeline adopts its corpus, so each study gets a copy, made
    // outside the op.
    synth::Dataset corpus = ds;
    const auto begin = Clock::now();
    const StudyOutput out = study(std::move(corpus), layers);
    const auto end = Clock::now();
    layers.record_op("study", begin, end);
    r.latencies_ms.push_back(ms_between(begin, end));
    if (r.attempted++ == 0) reference = out.checksum;
    if (!out.consistent || out.checksum != reference) ++r.failed;
    rules += static_cast<double>(out.rules);
    unknowns += static_cast<double>(out.unknowns);
    labeled += static_cast<double>(out.unknowns_labeled);
  }
  r.wall_ms = ms_between(start, Clock::now());

  // The study from one thread must give the same outputs.
  util::set_global_threads(1);
  Layers unmeasured(false);
  r.correct = check("one-thread study equals the measured ones",
                    study(ds, unmeasured).checksum == reference);

  const double n = static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
  generate.report(r);
  r.extra["rules.learned"] = rules / n;
  r.extra["evaluate.expand_pct"] =
      unknowns > 0 ? 100.0 * labeled / unknowns : 0.0;
  return r;
}

// ---- stream_serve -----------------------------------------------------

// One feed chunk: events [begin, end) of the corpus, due at `due_ms` after
// the replay starts.
struct Chunk {
  std::size_t begin = 0, end = 0;
  double due_ms = 0;
};

struct StreamInput {
  synth::Dataset ds;
  std::unique_ptr<analysis::AnnotatedCorpus> annotated;
  std::vector<Chunk> chunks;
};

// Compresses the collection period into `seconds` of wall time and cuts
// the time-sorted corpus into one chunk per tick that holds events; each
// chunk is due at the end of its tick.
std::vector<Chunk> schedule(const telemetry::EventStore& events,
                            double seconds) {
  const auto t0 = static_cast<double>(model::kMonthStart[0]);
  const auto t1 =
      static_cast<double>(model::kMonthStart[model::kNumCalendarMonths]);
  const double ms_per_s = seconds * 1000.0 / (t1 - t0);
  std::vector<Chunk> chunks;
  const auto times = events.time_column();
  for (std::size_t i = 0; i < events.size();) {
    const auto tick = std::floor(
        (static_cast<double>(times[i]) - t0) * ms_per_s / kTickMs);
    Chunk c{i, i, (tick + 1) * kTickMs};
    while (c.end < events.size() &&
           std::floor((static_cast<double>(times[c.end]) - t0) * ms_per_s /
                      kTickMs) == tick)
      ++c.end;
    chunks.push_back(c);
    i = c.end;
  }
  return chunks;
}

bool same_event(const telemetry::EventStore::EventRef& a,
                const telemetry::EventStore::EventRef& b) {
  return a.file() == b.file() && a.machine() == b.machine() &&
         a.process() == b.process() && a.url() == b.url() &&
         a.time() == b.time();
}

// Counters the feed keeps across laps.
struct FeedStats {
  std::uint64_t chunks = 0;
  std::uint64_t late = 0;
  std::uint64_t backlog_max = 0;
  double decided = 0;
  double served = 0;
};

// Replays one world's corpus through ingest, analytics and the labeler on
// its schedule, then checks the lap against the batch computations.
// Returns whether the end-of-lap checks hold.
bool serve_lap(const StreamInput& in, Layers& layers, Result& r,
               FeedStats& feed) {
  const auto& ds = in.ds;
  const auto& annotated = *in.annotated;
  const auto& events = ds.corpus.events;
  const auto& chunks = in.chunks;

  // Pass-through policy (no sigma cap, no whitelist): the corpus was
  // already collected, so every event must come out of ingest unchanged,
  // which the checks below rely on. The untrusted path runs the dedup set
  // and reorder buffer on every report.
  telemetry::StreamingConfig cfg;
  cfg.policy.sigma = std::numeric_limits<std::uint32_t>::max();
  cfg.window_s = kWindowS;
  cfg.num_files = ds.corpus.files.size();
  cfg.trusted = false;
  telemetry::StreamingCollectionServer server(std::move(cfg),
                                              ds.corpus.urls);
  analysis::StreamingAnalytics analytics(ds.corpus);
  deploy::OnlineLabeler labeler(ds, annotated, {});

  std::vector<telemetry::DeliveredReport> buffer;
  std::vector<telemetry::EventWindow> closed;
  std::size_t next_event = 0;  // corpus offset of the next window's events

  // Serves the windows the last ingest closed; each window's latency runs
  // from the due time of the chunk that closed it.
  auto serve_closed = [&](Clock::time_point due) {
    for (const auto& w : closed) {
      layers.call(kAnalytics, [&] { analytics.absorb(w); });
      const std::size_t months = labeler.monthly().size();
      const auto begin = Clock::now();
      labeler.serve(w);
      const auto end = Clock::now();
      layers.record(labeler.monthly().size() != months ? kRetrain : kServe,
                    begin, end);
      layers.record_op("window", due, end);
      r.latencies_ms.push_back(ms_between(due, end));
      ++r.attempted;

      bool ok = next_event + w.events.size() <= events.size();
      for (std::size_t j = 0; ok && j < w.events.size(); ++j)
        ok = same_event(w.events[j], events[next_event + j]);
      next_event += w.events.size();
      if (!ok) ++r.failed;
    }
    closed.clear();
  };

  const auto start = Clock::now();
  auto due_of = [&](std::size_t c) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           chunks[c].due_ms));
  };
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const auto due = due_of(c);
    // Spin until the due time: the schedule does not slow down when the
    // system does, and the core never idles between ticks.
    auto now = Clock::now();
    while ((now = Clock::now()) < due) {
    }
    if (now - due > std::chrono::duration<double, std::milli>(kTickMs))
      ++feed.late;
    std::uint64_t overdue = 0;
    while (c + overdue < chunks.size() && due_of(c + overdue) <= now)
      ++overdue;
    feed.backlog_max = std::max(feed.backlog_max, overdue);

    buffer.clear();
    for (std::size_t i = chunks[c].begin; i < chunks[c].end; ++i)
      buffer.push_back(telemetry::DeliveredReport{
          events[i], static_cast<std::uint64_t>(i), events[i].time(), 0,
          false});
    layers.call(kIngest, [&] { server.ingest(buffer, closed); });
    serve_closed(due);
  }
  const auto last_due = Clock::now();
  layers.call(kIngest, [&] { server.finish(closed); });
  serve_closed(last_due);
  feed.chunks += chunks.size();

  for (const auto& m : labeler.monthly()) {
    feed.decided += static_cast<double>(m.decided_malicious + m.decided_benign);
    feed.served += static_cast<double>(m.events);
  }
  labeler.finish();

  // Streaming must equal batch: every event served exactly once, the
  // windowed labeler equal to its one-shot replay, and every incremental
  // analysis equal to its batch pass.
  deploy::OnlineLabeler batch(ds, annotated, {});
  const auto batch_monthly = batch.run();
  return check("every event served once", next_event == events.size() &&
                                               server.conserved() &&
                                               server.stats().accepted ==
                                                   events.size()) &&
         check("labeler equals batch replay",
               digest(labeler.monthly()) == digest(batch_monthly) &&
                   digest(labeler.freshness()) == digest(batch.freshness())) &&
         check("monthly summary equals batch",
               digest(analytics.monthly(annotated)) ==
                   digest(analysis::monthly_summary(annotated))) &&
         check("prevalence equals batch",
               digest(analytics.prevalence(annotated)) ==
                   digest(analysis::prevalence_distributions(annotated))) &&
         check("signing rates equal batch",
               digest(analytics.signing(annotated)) ==
                   digest(analysis::signing_rates(annotated))) &&
         check("machine coverage equals batch",
               digest(analytics.coverage(annotated)) ==
                   digest(analysis::machine_coverage(annotated)));
}

Result run_stream_serve(const Options& opt, Layers& layers) {
  Result r;
  // Set-up, once per world: generate and annotate the corpus the labeler
  // serves, and lay out the feed's schedule. Each lap replays one world
  // in an equal share of the run.
  const double lap_seconds = opt.seconds / static_cast<double>(kSetups);
  Generator generate;
  const auto inputs = timed_setups(r, [&](std::size_t k) {
    auto in = std::make_unique<StreamInput>();
    in->ds = generate(profile_for(kStreamScale, opt.seed, k));
    in->annotated = std::make_unique<analysis::AnnotatedCorpus>(
        analysis::annotate(in->ds.corpus, in->ds.whitelist, in->ds.vt));
    in->chunks = schedule(in->ds.corpus.events, lap_seconds);
    return in;
  });

  FeedStats feed;
  const auto start = Clock::now();
  for (const auto& in : inputs)
    r.correct = serve_lap(*in, layers, r, feed) && r.correct;
  r.wall_ms = ms_between(start, Clock::now());

  generate.report(r);
  r.extra["serve.decided_pct"] =
      feed.served > 0 ? 100.0 * feed.decided / feed.served : 0.0;
  r.extra["feed.late_pct"] = feed.chunks == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(feed.late) /
                                       static_cast<double>(feed.chunks);
  r.extra["feed.backlog_max"] = static_cast<double>(feed.backlog_max);
  return r;
}

// ---- main -------------------------------------------------------------

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 3600;
    } else if (key == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (key == "--trace-file") {
      opt.trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: longtail_bench --workload <study_batch|"
                 "stream_serve> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n");
    return 2;
  }
  // The library's own instrumentation stays off: the harness times the
  // layers from outside, and the program is measured as users run it.
  util::metrics::set_enabled(false);
  util::trace::set_enabled(false);
  util::profile::set_enabled(false);
  util::set_global_threads(kThreads);

  Layers layers(opt.trace);
  Result r;
  try {
    if (opt.workload == "study_batch") {
      r = run_study_batch(opt, layers);
    } else if (opt.workload == "stream_serve") {
      r = run_stream_serve(opt, layers);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
      return 2;
    }
    if (opt.trace && !opt.trace_file.empty() && !layers.spans().empty())
      write_trace(opt.trace_file, layers.spans(), layers.spans().front().begin);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "longtail_bench: %s\n", e.what());
    return 1;
  }
  print_result(r, layers, opt.trace);
  return 0;
}
