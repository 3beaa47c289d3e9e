// Incremental analytics: StreamingAnalytics snapshots taken after
// absorbing the full windowed stream must be bit-identical to the batch
// passes over the same corpus — for every window width, because every
// accumulator is order-free and the folds are shared with the batch
// scans.
#include "analysis/streaming.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/monthly.hpp"
#include "analysis/prevalence.hpp"
#include "analysis/signers.hpp"
#include "dataset_fixture.hpp"
#include "telemetry/streaming.hpp"

namespace longtail::analysis {
namespace {

const core::LongtailPipeline& pipeline() {
  return test::shared_pipeline(0.04);
}

// Re-ingests the collected corpus through the streaming path with a
// pass-through policy, so the absorbed windows partition exactly the
// corpus events.
std::vector<telemetry::EventWindow> windowize(const telemetry::Corpus& corpus,
                                              model::Timestamp window_s) {
  telemetry::StreamingConfig cfg;
  cfg.policy.sigma = std::numeric_limits<std::uint32_t>::max();
  cfg.window_s = window_s;
  cfg.num_files = corpus.files.size();
  cfg.trusted = true;
  telemetry::StreamingCollectionServer server(std::move(cfg), corpus.urls);
  auto windows = telemetry::collect_in_order(server, corpus.events);
  EXPECT_EQ(server.stats().accepted, corpus.events.size());
  return windows;
}

void expect_same_row(const MonthlyRow& s, const MonthlyRow& b) {
  EXPECT_EQ(s.machines, b.machines);
  EXPECT_EQ(s.events, b.events);
  EXPECT_EQ(s.processes, b.processes);
  EXPECT_EQ(s.proc_benign, b.proc_benign);
  EXPECT_EQ(s.proc_likely_benign, b.proc_likely_benign);
  EXPECT_EQ(s.proc_malicious, b.proc_malicious);
  EXPECT_EQ(s.proc_likely_malicious, b.proc_likely_malicious);
  EXPECT_EQ(s.files, b.files);
  EXPECT_EQ(s.file_benign, b.file_benign);
  EXPECT_EQ(s.file_likely_benign, b.file_likely_benign);
  EXPECT_EQ(s.file_malicious, b.file_malicious);
  EXPECT_EQ(s.file_likely_malicious, b.file_likely_malicious);
  EXPECT_EQ(s.urls, b.urls);
  EXPECT_EQ(s.url_benign, b.url_benign);
  EXPECT_EQ(s.url_malicious, b.url_malicious);
}

void expect_same_signing_row(const SignedRateRow& s, const SignedRateRow& b) {
  EXPECT_EQ(s.files, b.files);
  EXPECT_EQ(s.signed_pct, b.signed_pct);
  EXPECT_EQ(s.browser_files, b.browser_files);
  EXPECT_EQ(s.browser_signed_pct, b.browser_signed_pct);
}

void expect_same_cdf(const util::EmpiricalCdf& s, const util::EmpiricalCdf& b) {
  ASSERT_EQ(s.size(), b.size());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    EXPECT_EQ(s.quantile(q), b.quantile(q)) << "quantile " << q;
}

void expect_same_summary(const MonthlySummary& s, const MonthlySummary& b) {
  expect_same_row(s.overall, b.overall);
  for (std::size_t m = 0; m < model::kNumCollectionMonths; ++m) {
    SCOPED_TRACE(testing::Message() << "month " << m);
    expect_same_row(s.months[m], b.months[m]);
  }
}

void expect_same_prevalence(const PrevalenceDistributions& s,
                            const PrevalenceDistributions& b) {
  expect_same_cdf(s.all, b.all);
  expect_same_cdf(s.benign, b.benign);
  expect_same_cdf(s.malicious, b.malicious);
  expect_same_cdf(s.unknown, b.unknown);
  EXPECT_EQ(s.prevalence_one_fraction, b.prevalence_one_fraction);
  EXPECT_EQ(s.at_cap_fraction, b.at_cap_fraction);
}

void expect_same_signing(const SigningRates& s, const SigningRates& b) {
  expect_same_signing_row(s.benign, b.benign);
  expect_same_signing_row(s.unknown, b.unknown);
  expect_same_signing_row(s.malicious, b.malicious);
  for (std::size_t t = 0; t < s.per_type.size(); ++t)
    expect_same_signing_row(s.per_type[t], b.per_type[t]);
}

void expect_same_coverage(const MachineCoverage& s, const MachineCoverage& b) {
  EXPECT_EQ(s.active_machines, b.active_machines);
  for (std::size_t v = 0; v < s.machines.size(); ++v)
    EXPECT_EQ(s.machines[v], b.machines[v]);
}

TEST(StreamingAnalytics, SnapshotsAreBitIdenticalToBatchAtEveryWidth) {
  const auto& p = pipeline();
  const auto& a = p.annotated();
  const auto& corpus = p.dataset().corpus;

  const auto batch_monthly = monthly_summary(a);
  const auto batch_prevalence = prevalence_distributions(a);
  const auto batch_signing = signing_rates(a);
  const auto batch_coverage = machine_coverage(a);

  // One calendar week (the serving default) and one awkward prime width
  // that straddles month boundaries.
  for (const model::Timestamp window_s : {model::Timestamp{7 * 86'400},
                                          model::Timestamp{999'983}}) {
    SCOPED_TRACE(testing::Message() << "window_s=" << window_s);
    const auto windows = windowize(corpus, window_s);
    ASSERT_GT(windows.size(), 1u);

    StreamingAnalytics analytics(corpus);
    for (const auto& w : windows) analytics.absorb(w);
    EXPECT_EQ(analytics.events_absorbed(), corpus.events.size());
    EXPECT_EQ(analytics.windows_absorbed(), windows.size());

    expect_same_summary(analytics.monthly(a), batch_monthly);
    expect_same_prevalence(analytics.prevalence(a), batch_prevalence);
    expect_same_signing(analytics.signing(a), batch_signing);
    expect_same_coverage(analytics.coverage(a), batch_coverage);
  }
}

TEST(StreamingAnalytics, MidStreamSnapshotMatchesBatchOnPrefix) {
  // A snapshot at an interior window boundary equals the batch analyses
  // applied to a corpus truncated at that boundary.
  const auto& p = pipeline();
  const auto& a = p.annotated();
  const auto& corpus = p.dataset().corpus;
  const auto windows = windowize(corpus, 14 * 86'400);
  ASSERT_GT(windows.size(), 2u);

  const std::size_t half = windows.size() / 2;
  StreamingAnalytics analytics(corpus);
  std::uint64_t prefix_events = 0;
  for (std::size_t i = 0; i < half; ++i) {
    analytics.absorb(windows[i]);
    prefix_events += windows[i].events.size();
  }
  EXPECT_EQ(analytics.events_absorbed(), prefix_events);

  // The batch comparator: a corpus whose event table is the prefix, with
  // the full corpus's labels and entity tables.
  telemetry::Corpus prefix = corpus;
  prefix.events.clear();
  for (std::size_t i = 0; i < half; ++i)
    for (std::size_t j = 0; j < windows[i].events.size(); ++j)
      prefix.events.push_back(windows[i].events[j]);
  AnnotatedCorpus pa(prefix);
  pa.labels = a.labels;
  pa.file_types = a.file_types;
  pa.process_types = a.process_types;
  pa.url_verdicts = a.url_verdicts;

  expect_same_summary(analytics.monthly(pa), monthly_summary(pa));
  expect_same_prevalence(analytics.prevalence(pa),
                         prevalence_distributions(pa));
  expect_same_signing(analytics.signing(pa), signing_rates(pa));
  expect_same_coverage(analytics.coverage(pa), machine_coverage(pa));
}

TEST(StreamingAnalytics, EventsPastAugustCountInBothOverallRows) {
  // A hand-built corpus with an event on every month start and one past
  // the end of the period (Sep 1 + 10 s) from a machine and a file seen
  // nowhere else. Both paths clamp that event into August, so it reaches
  // the overall row of the batch summary and of the snapshot alike.
  telemetry::Corpus corpus;
  corpus.machine_count = 3;
  corpus.files.resize(3);
  corpus.processes.resize(1);
  corpus.processes[0].category = model::ProcessCategory::kBrowser;
  corpus.domains.resize(1);
  corpus.domain_names.intern("hosting.com");
  corpus.urls.push_back({model::DomainId{0}, 0});
  auto ev = [](std::uint32_t f, std::uint32_t m, model::Timestamp t) {
    return model::DownloadEvent{model::FileId{f}, model::MachineId{m},
                                model::ProcessId{0}, model::UrlId{0}, t};
  };
  for (std::uint32_t m = 0; m < model::kNumCalendarMonths; ++m)
    corpus.events.push_back(ev(m % 2, 0, model::kMonthStart[m]));
  const model::Timestamp after_period =
      model::kMonthStart[model::kNumCalendarMonths] + 10;
  corpus.events.push_back(ev(2, 1, after_period));

  groundtruth::Whitelist whitelist;
  whitelist.add(model::FileId{0});
  const AnnotatedCorpus a =
      annotate(corpus, whitelist, groundtruth::VtDatabase{});

  // One window per event.
  StreamingAnalytics analytics(corpus);
  for (std::size_t i = 0; i < corpus.events.size(); ++i) {
    telemetry::EventWindow w;
    w.events.push_back(corpus.events[i]);
    analytics.absorb(w);
  }

  const auto batch = monthly_summary(a);
  expect_same_summary(analytics.monthly(a), batch);
  EXPECT_EQ(batch.overall.events, corpus.events.size());
  EXPECT_EQ(batch.overall.machines, 2u);
  EXPECT_EQ(batch.overall.files, 3u);
  for (std::size_t m = 0; m < model::kNumCollectionMonths; ++m) {
    EXPECT_EQ(batch.months[m].events, 1u);
    EXPECT_EQ(batch.months[m].machines, 1u);
  }
}

TEST(StreamingAnalytics, RejectsAWindowWithAnIdPastItsTable) {
  // A window whose last event carries one id one past its corpus table is
  // refused whole: nothing of it is folded, so the counts and every
  // snapshot stay as they were.
  const auto& p = pipeline();
  const auto& a = p.annotated();
  const auto& corpus = p.dataset().corpus;
  const auto windows = windowize(corpus, 14 * 86'400);
  ASSERT_GT(windows.size(), 2u);
  StreamingAnalytics analytics(corpus);
  analytics.absorb(windows[0]);
  const auto events = analytics.events_absorbed();
  const auto monthly = analytics.monthly(a);
  const auto prevalence = analytics.prevalence(a);
  const auto signing = analytics.signing(a);
  const auto coverage = analytics.coverage(a);

  const auto past = [](std::size_t table) {
    return static_cast<std::uint32_t>(table);
  };
  const std::vector<std::pair<const char*, model::DownloadEvent>> cases = [&] {
    const model::DownloadEvent e = windows[1].events.back();
    std::vector<std::pair<const char*, model::DownloadEvent>> out(4, {"", e});
    out[0].first = "machine";
    out[0].second.machine = model::MachineId{corpus.machine_count};
    out[1].first = "process";
    out[1].second.process = model::ProcessId{past(corpus.processes.size())};
    out[2].first = "file";
    out[2].second.file = model::FileId{past(corpus.files.size())};
    out[3].first = "url";
    out[3].second.url = model::UrlId{past(corpus.urls.size())};
    return out;
  }();
  for (const auto& [kind, bad] : cases) {
    SCOPED_TRACE(kind);
    telemetry::EventWindow w{1, windows[1].begin, windows[1].end, {}};
    w.events.assign(windows[1].events);
    w.events.push_back(bad);
    try {
      analytics.absorb(w);
      ADD_FAILURE() << "absorb accepted the window";
    } catch (const std::out_of_range& err) {
      EXPECT_NE(std::string(err.what()).find(std::string(kind) + " id"),
                std::string::npos)
          << err.what();
    }
    EXPECT_EQ(analytics.events_absorbed(), events);
    EXPECT_EQ(analytics.windows_absorbed(), 1u);
    expect_same_summary(analytics.monthly(a), monthly);
    expect_same_prevalence(analytics.prevalence(a), prevalence);
    expect_same_signing(analytics.signing(a), signing);
    expect_same_coverage(analytics.coverage(a), coverage);
  }
}

}  // namespace
}  // namespace longtail::analysis
