#include "deploy/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "dataset_fixture.hpp"
#include "groundtruth/engines.hpp"
#include "telemetry/streaming.hpp"

namespace longtail::deploy {
namespace {

const core::LongtailPipeline& pipeline() {
  return test::shared_pipeline(0.04);
}

std::vector<MonthlyDeployStats> run_mode(bool as_of) {
  OnlineConfig config;
  config.labels_as_of_training_time = as_of;
  OnlineLabeler labeler(pipeline().dataset(), pipeline().annotated(), config);
  return labeler.run();
}

TEST(OnlineLabeler, CoversEveryDeployMonth) {
  const auto months = run_mode(true);
  ASSERT_EQ(months.size(), model::kNumCollectionMonths - 1);
  for (const auto& m : months) {
    EXPECT_GT(m.events, 0u);
    EXPECT_EQ(m.events, m.decided_malicious + m.decided_benign + m.rejected +
                            m.unmatched);
  }
}

TEST(OnlineLabeler, OperationalTrainsOnFewerLabels) {
  const auto retrospective = run_mode(false);
  const auto operational = run_mode(true);
  ASSERT_EQ(retrospective.size(), operational.size());
  for (std::size_t m = 0; m < retrospective.size(); ++m) {
    // Labels knowable at retraining time are a subset of the final ones.
    EXPECT_LE(operational[m].training_instances,
              retrospective[m].training_instances);
  }
}

TEST(OnlineLabeler, OperationalDecidesFewerDownloads) {
  const auto retrospective = run_mode(false);
  const auto operational = run_mode(true);
  std::uint64_t retro_decided = 0, op_decided = 0;
  for (std::size_t m = 0; m < retrospective.size(); ++m) {
    retro_decided += retrospective[m].decided_malicious;
    op_decided += operational[m].decided_malicious;
  }
  EXPECT_LT(op_decided, retro_decided);
  EXPECT_GT(op_decided, 0u);
}

TEST(OnlineLabeler, PrecisionSurvivesOperationalLabels) {
  // Less coverage, but the decisions that are made stay precise.
  const auto operational = run_mode(true);
  for (const auto& m : operational) {
    if (m.final_malicious_decided < 50) continue;  // skip thin months
    EXPECT_GT(m.tp_rate(), 85.0);
    EXPECT_LT(m.fp_rate(), 2.0);
  }
}

TEST(OnlineLabeler, RetrospectiveMatchesPipelineExperiment) {
  // With final labels, the online replay should roughly agree with the
  // offline RuleExperiment on the same month pair.
  const auto retrospective = run_mode(false);
  const auto exp = pipeline().run_rule_experiment(model::Month::kMarch,
                                                  model::Month::kApril);
  const auto eval = core::LongtailPipeline::evaluate_tau(exp, 0.001);
  // Deploy month April is index 2 (Feb=0).
  const auto& april = retrospective[2];
  EXPECT_GT(april.rules_active, eval.selected.total / 2);
  EXPECT_GT(april.tp_rate(), 95.0);
}

// Re-ingests the collected corpus through the streaming path with a
// pass-through policy so the serving loop sees exactly the corpus replay,
// partitioned into windows.
std::vector<telemetry::EventWindow> windowize(const telemetry::Corpus& corpus,
                                              model::Timestamp window_s) {
  telemetry::StreamingConfig cfg;
  cfg.policy.sigma = std::numeric_limits<std::uint32_t>::max();
  cfg.window_s = window_s;
  cfg.num_files = corpus.files.size();
  cfg.trusted = true;
  telemetry::StreamingCollectionServer server(std::move(cfg), corpus.urls);
  return telemetry::collect_in_order(server, corpus.events);
}

TEST(OnlineLabeler, WindowedServingMatchesBatchReplay) {
  OnlineLabeler batch(pipeline().dataset(), pipeline().annotated(), {});
  const auto batch_monthly = batch.run();
  const auto& batch_fresh = batch.freshness();
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  // Day windows are perfbench's serving width; week windows cross month
  // boundaries mid-window.
  for (const model::Timestamp window_s : {86'400, 7 * 86'400}) {
    SCOPED_TRACE(window_s);
    OnlineLabeler serving(pipeline().dataset(), pipeline().annotated(), {});
    const auto windows = windowize(pipeline().dataset().corpus, window_s);
    ASSERT_GT(windows.size(), 1u);
    for (const auto& w : windows) serving.serve(w);
    serving.finish();

    const auto& streamed = serving.monthly();
    ASSERT_EQ(streamed.size(), batch_monthly.size());
    for (std::size_t m = 0; m < batch_monthly.size(); ++m) {
      SCOPED_TRACE(m);
      const auto& b = batch_monthly[m];
      EXPECT_EQ(streamed[m].events, b.events);
      EXPECT_EQ(streamed[m].decided_malicious, b.decided_malicious);
      EXPECT_EQ(streamed[m].decided_benign, b.decided_benign);
      EXPECT_EQ(streamed[m].rejected, b.rejected);
      EXPECT_EQ(streamed[m].unmatched, b.unmatched);
      EXPECT_EQ(streamed[m].true_positives, b.true_positives);
      EXPECT_EQ(streamed[m].false_positives, b.false_positives);
      EXPECT_EQ(streamed[m].final_malicious_decided, b.final_malicious_decided);
      EXPECT_EQ(streamed[m].final_benign_decided, b.final_benign_decided);
      EXPECT_EQ(streamed[m].rules_active, b.rules_active);
      EXPECT_EQ(streamed[m].training_instances, b.training_instances);
    }
    EXPECT_EQ(serving.events_served(),
              pipeline().dataset().corpus.events.size());

    const auto& fresh = serving.freshness();
    EXPECT_GT(fresh.files_reported, 0u);
    EXPECT_EQ(fresh.files_reported, fresh.files_labeled + fresh.files_pending);
    EXPECT_EQ(fresh.files_reported, batch_fresh.files_reported);
    EXPECT_EQ(fresh.files_labeled, batch_fresh.files_labeled);
    EXPECT_EQ(fresh.files_pending, batch_fresh.files_pending);
    EXPECT_EQ(bits(fresh.p50_s), bits(batch_fresh.p50_s));
    EXPECT_EQ(bits(fresh.p90_s), bits(batch_fresh.p90_s));
    EXPECT_EQ(bits(fresh.p99_s), bits(batch_fresh.p99_s));
    EXPECT_EQ(bits(fresh.max_s), bits(batch_fresh.max_s));
    EXPECT_EQ(bits(fresh.mean_s), bits(batch_fresh.mean_s));
  }
}

model::DownloadEvent event_at(std::uint32_t file, model::Timestamp t) {
  return model::DownloadEvent{model::FileId{file}, model::MachineId{0},
                              model::ProcessId{0}, model::UrlId{0}, t, true};
}

// The first `n` whitelisted files of the dataset: their as-of verdict is
// benign at every moment, so each download of one is a training instance.
std::vector<std::uint32_t> whitelisted_files(std::size_t n) {
  const auto& dataset = pipeline().dataset();
  const auto num_files = dataset.corpus.files.size();
  std::vector<std::uint32_t> out;
  for (std::uint32_t f = 0; f < num_files && out.size() < n; ++f)
    if (dataset.whitelist.contains(model::FileId{f})) out.push_back(f);
  return out;
}

TEST(OnlineLabeler, TrainingWindowHoldsEachFileOncePerMonth) {
  const auto files = whitelisted_files(2);
  ASSERT_EQ(files.size(), 2u);
  // One file is downloaded twice in each of January and February, the
  // other twice in January only.
  const std::uint32_t both_months = files[0], twice_in_january = files[1];
  const model::Timestamp feb = model::kMonthStart[1];

  telemetry::EventWindow jan{0, 0, 100, {}};
  jan.events.push_back(event_at(both_months, 10));
  jan.events.push_back(event_at(both_months, 15));
  jan.events.push_back(event_at(twice_in_january, 20));
  jan.events.push_back(event_at(twice_in_january, 30));
  telemetry::EventWindow february{1, feb, feb + 100, {}};
  february.events.push_back(event_at(both_months, feb + 10));
  february.events.push_back(event_at(both_months, feb + 20));

  OnlineLabeler serving(pipeline().dataset(), pipeline().annotated(), {});
  serving.serve(jan);
  serving.serve(february);
  serving.finish();

  // Deploy month February trains on January, March on February.
  const auto& months = serving.monthly();
  ASSERT_EQ(months.size(), model::kNumCollectionMonths - 1);
  EXPECT_EQ(months[0].training_instances, 2u);
  EXPECT_EQ(months[1].training_instances, 1u);
  for (std::size_t m = 2; m < months.size(); ++m)
    EXPECT_EQ(months[m].training_instances, 0u) << "month " << m;
  EXPECT_EQ(serving.freshness().files_reported, 2u);
}

TEST(OnlineLabeler, RejectsAFileIdOutsideTheCorpus) {
  const auto files = static_cast<std::uint32_t>(
      pipeline().dataset().corpus.files.size());
  telemetry::EventWindow w{0, 0, 100, {}};
  w.events.push_back(event_at(files, 10));
  OnlineLabeler serving(pipeline().dataset(), pipeline().annotated(), {});
  EXPECT_THROW(serving.serve(w), std::out_of_range);
}

TEST(OnlineLabeler, RejectsAWindowWithAnIdPastItsTable) {
  // The bad event follows a valid one: the window is refused whole.
  const auto& corpus = pipeline().dataset().corpus;
  const auto past = [](std::size_t table) {
    return static_cast<std::uint32_t>(table);
  };
  for (const char* kind : {"file", "process", "url"}) {
    SCOPED_TRACE(kind);
    model::DownloadEvent bad = event_at(0, 20);
    if (kind == std::string_view("file"))
      bad.file = model::FileId{past(corpus.files.size())};
    if (kind == std::string_view("process"))
      bad.process = model::ProcessId{past(corpus.processes.size())};
    if (kind == std::string_view("url"))
      bad.url = model::UrlId{past(corpus.urls.size())};
    telemetry::EventWindow w{0, 0, 100, {}};
    w.events.push_back(event_at(0, 10));
    w.events.push_back(bad);
    OnlineLabeler serving(pipeline().dataset(), pipeline().annotated(), {});
    try {
      serving.serve(w);
      ADD_FAILURE() << "serve accepted the window";
    } catch (const std::out_of_range& err) {
      EXPECT_NE(std::string(err.what()).find(std::string(kind) + " id"),
                std::string::npos)
          << err.what();
    }
    EXPECT_EQ(serving.events_served(), 0u);
  }
}

TEST(OnlineLabeler, ServesAFileWithARepeatedTrustedEngine) {
  // A loaded report may list one trusted engine any number of times; the
  // label-time search must probe every signature without a size bound.
  constexpr model::Timestamp kDay = model::kSecondsPerDay;
  synth::Dataset dataset = pipeline().dataset();
  std::uint32_t file = 0;
  while (dataset.whitelist.contains(model::FileId{file})) ++file;
  groundtruth::VtReport repeated;
  repeated.first_scan = 1'000;
  repeated.last_scan = 400 * kDay;
  for (int i = 0; i < 64; ++i)
    repeated.detections.push_back(
        {0, "Trojan.Gen", 2'000 + (63 - i) * 7 * kDay});
  dataset.vt.put(model::FileId{file}, repeated);

  telemetry::EventWindow w{0, 0, 100, {}};
  w.events.push_back(event_at(file, 10));
  OnlineLabeler serving(dataset, pipeline().annotated(), {});
  serving.serve(w);
  serving.finish();

  // The earliest signature (listed last) labels the file.
  const auto& fresh = serving.freshness();
  EXPECT_EQ(fresh.files_reported, 1u);
  EXPECT_EQ(fresh.files_labeled, 1u);
  EXPECT_EQ(fresh.max_s, 2'000.0 - 10.0);
}

// A malicious file whose trusted signature predates its first VT scan:
// the as-of verdict is unknown until that scan, then malicious at once.
bool signature_predates_first_scan(const groundtruth::VtReport& vt) {
  bool before = false;
  for (const auto& det : vt.detections) {
    if (!groundtruth::is_trusted(det.engine)) continue;
    if (det.signature_time == vt.first_scan) return false;
    before = before || det.signature_time < vt.first_scan;
  }
  return before;
}

TEST(OnlineLabeler, FreshnessLatencyIsExactOnHandBuiltStream) {
  const auto& dataset = pipeline().dataset();
  const auto& corpus = dataset.corpus;

  // Four files with fully characterized evidence: a whitelisted one
  // (label matures at first report), a clean one with a long scan span
  // (label matures when the span crosses the 14-day threshold), a
  // malicious one reported before its first scan but signed before it
  // (label matures at the first scan), and one with no evidence at all
  // (pending forever).
  constexpr std::uint32_t kNone = ~0u;
  std::uint32_t wl_file = kNone, clean_file = kNone, dark_file = kNone;
  std::uint32_t early_sig_file = kNone;
  constexpr model::Timestamp kDay = model::kSecondsPerDay;
  const model::Timestamp period_end =
      model::kMonthStart[model::kNumCalendarMonths];
  for (std::uint32_t f = 0; f < corpus.files.size(); ++f) {
    const model::FileId id{f};
    const auto& vt = dataset.vt.query(id);
    if (dataset.whitelist.contains(id)) {
      if (wl_file == kNone) wl_file = f;
    } else if (!vt.has_value()) {
      if (dark_file == kNone) dark_file = f;
    } else if (vt->clean() && vt->scan_span_days() >= 14 &&
               vt->first_scan > 100 &&
               vt->first_scan + 14 * kDay < period_end) {
      if (clean_file == kNone) clean_file = f;
    } else if (signature_predates_first_scan(*vt) && vt->first_scan > 100 &&
               vt->first_scan < period_end) {
      if (early_sig_file == kNone) early_sig_file = f;
    }
    if (wl_file != kNone && clean_file != kNone && dark_file != kNone &&
        early_sig_file != kNone)
      break;
  }
  ASSERT_NE(wl_file, kNone);
  ASSERT_NE(clean_file, kNone);
  ASSERT_NE(dark_file, kNone);
  ASSERT_NE(early_sig_file, kNone);
  const auto clean_matures =
      dataset.vt.query(model::FileId{clean_file})->first_scan + 14 * kDay;
  const auto early_sig_matures =
      dataset.vt.query(model::FileId{early_sig_file})->first_scan;

  // Two hand-built January windows (no classifier is active in January,
  // so the evidence route alone determines every label).
  telemetry::EventWindow w0{0, 0, 100, {}};
  w0.events.push_back(event_at(wl_file, 10));
  w0.events.push_back(event_at(clean_file, 20));
  w0.events.push_back(event_at(early_sig_file, 30));
  telemetry::EventWindow w1{1, 100, 200, {}};
  w1.events.push_back(event_at(dark_file, 150));
  w1.events.push_back(event_at(wl_file, 160));  // repeat: not a new report

  OnlineLabeler serving(dataset, pipeline().annotated(), {});
  serving.serve(w0);
  serving.serve(w1);
  serving.finish();

  const auto& fresh = serving.freshness();
  EXPECT_EQ(fresh.files_reported, 4u);
  EXPECT_EQ(fresh.files_labeled, 3u);
  EXPECT_EQ(fresh.files_pending, 1u);
  // Whitelist: latency 0. Clean file first reported at t=20: its span
  // crosses 14 days at first_scan + 14d. The early-signature file first
  // reported at t=30 turns malicious at its first scan. So the latencies
  // are {0, a, b} exactly.
  const auto clean_latency = clean_matures - 20;
  const auto early_sig_latency = early_sig_matures - 30;
  const double a =
      static_cast<double>(std::min(clean_latency, early_sig_latency));
  const double b =
      static_cast<double>(std::max(clean_latency, early_sig_latency));
  EXPECT_EQ(fresh.max_s, b);
  EXPECT_EQ(fresh.p50_s, a);  // the middle of three
  EXPECT_EQ(fresh.mean_s,
            static_cast<double>(clean_latency + early_sig_latency) / 3.0);
  EXPECT_DOUBLE_EQ(fresh.p99_s, a + 0.98 * (b - a));
}

}  // namespace
}  // namespace longtail::deploy
