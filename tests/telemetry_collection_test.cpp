#include "telemetry/collection.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "telemetry/streaming.hpp"
#include "telemetry/transport.hpp"
#include "tests/collection_harness.hpp"

namespace longtail::telemetry {
namespace {

using model::DownloadEvent;
using model::DomainId;
using model::FileId;
using model::MachineId;
using model::ProcessId;
using model::UrlId;
using model::UrlMeta;
using test::collect;
using test::make_server;

DownloadEvent make_event(std::uint32_t file, std::uint32_t machine,
                         std::uint32_t url, model::Timestamp t,
                         bool executed = true) {
  return DownloadEvent{FileId{file}, MachineId{machine}, ProcessId{0},
                       UrlId{url}, t, executed};
}

std::vector<UrlMeta> two_urls() {
  return {UrlMeta{DomainId{0}, 0}, UrlMeta{DomainId{1}, 0}};
}

// The §II-A rules over a time-ordered agent stream, delivered exactly
// once and in order through the trusted path.
EventStore filter(StreamingCollectionServer& server,
                  const std::vector<DownloadEvent>& raw) {
  return test::concat_windows(collect_in_order(server, raw));
}

TEST(CollectionServer, AcceptsExecutedEvents) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 20, .whitelisted_domains = {}}, urls,
                            /*trusted=*/true);
  const std::vector<DownloadEvent> raw = {make_event(0, 0, 0, 10)};
  const auto out = filter(server, raw);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(CollectionServer, DropsNonExecutedDownloads) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 20, .whitelisted_domains = {}}, urls,
                            /*trusted=*/true);
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 10, /*executed=*/false),
      make_event(0, 1, 0, 20, /*executed=*/true)};
  const auto out = filter(server, raw);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(server.stats().dropped_not_executed, 1u);
}

TEST(CollectionServer, DropsWhitelistedDomains) {
  const auto urls = two_urls();
  auto server = make_server(
      {.sigma = 20, .whitelisted_domains = {DomainId{1}}}, urls,
      /*trusted=*/true);
  const std::vector<DownloadEvent> raw = {make_event(0, 0, 0, 10),
                                          make_event(1, 0, 1, 20)};
  const auto out = filter(server, raw);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url(), (UrlId{0}));
  EXPECT_EQ(server.stats().dropped_whitelisted_url, 1u);
}

TEST(CollectionServer, EnforcesPrevalenceCap) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 3, .whitelisted_domains = {}}, urls,
                            /*trusted=*/true);
  std::vector<DownloadEvent> raw;
  for (std::uint32_t m = 0; m < 10; ++m)
    raw.push_back(make_event(0, m, 0, 10 + m));
  const auto out = filter(server, raw);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(server.stats().dropped_prevalence_cap, 7u);
  EXPECT_EQ(server.reported_prevalence(FileId{0}), 3u);
}

TEST(CollectionServer, RepeatMachineDoesNotCountTwiceTowardCap) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 2, .whitelisted_domains = {}}, urls,
                            /*trusted=*/true);
  // Machine 0 downloads the file twice; then machines 1 and 2 try.
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 1), make_event(0, 0, 0, 2), make_event(0, 1, 0, 3),
      make_event(0, 2, 0, 4)};
  const auto out = filter(server, raw);
  // Events from machines {0,0,1} accepted; machine 2 pushed past sigma=2.
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(server.reported_prevalence(FileId{0}), 2u);
}

TEST(CollectionServer, SigmaTwentyMatchesPaperSetting) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 20, .whitelisted_domains = {}}, urls,
                            /*trusted=*/true);
  std::vector<DownloadEvent> raw;
  for (std::uint32_t m = 0; m < 100; ++m)
    raw.push_back(make_event(0, m, 0, m));
  EXPECT_EQ(filter(server, raw).size(), 20u);
}

TEST(CollectionServer, CapIsPerFile) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 1, .whitelisted_domains = {}}, urls,
                            /*trusted=*/true);
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 1), make_event(1, 1, 0, 2), make_event(2, 2, 0, 3)};
  EXPECT_EQ(filter(server, raw).size(), 3u);
}

TEST(CollectionServer, StatsTotalSeen) {
  const auto urls = two_urls();
  auto server = make_server(
      {.sigma = 1, .whitelisted_domains = {DomainId{1}}}, urls,
      /*trusted=*/true);
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 1, false), make_event(0, 1, 1, 2),
      make_event(0, 2, 0, 3), make_event(0, 3, 0, 4)};
  (void)filter(server, raw);
  EXPECT_EQ(server.stats().total_seen(), 4u);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(PrevalenceTracker, StoresAtMostSigmaMachinesPerFile) {
  PrevalenceTracker tracker(3);
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{0}));
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{1}));
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{2}));
  // The cap is reached: new machines are refused, but repeat downloads
  // from an already-admitted machine stay reportable.
  EXPECT_FALSE(tracker.admit(FileId{0}, MachineId{3}));
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{1}));
  EXPECT_EQ(tracker.prevalence(FileId{0}), 3u);
  EXPECT_TRUE(tracker.saturated(FileId{0}));
  EXPECT_FALSE(tracker.saturated(FileId{1}));
  EXPECT_EQ(tracker.prevalence(FileId{1}), 0u);
}

TEST(ReorderBoundary, EventExactlyAtHorizonIsAdmitted) {
  // The stale rule is strict: an event reported exactly at the released
  // watermark is still admitted; one second earlier is stale.
  const auto urls = two_urls();
  auto server = make_server(
      {.sigma = 20, .whitelisted_domains = {}, .reorder_horizon_s = 100.0},
      urls, /*trusted=*/false);
  const std::vector<DeliveredReport> delivered = {
      {make_event(0, 0, 0, 1000), 0, 1100, 0, false},
      {make_event(1, 1, 0, 999), 1, 1100, 0, false},
  };
  const auto out = collect(server, delivered);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].file(), (FileId{0}));
  EXPECT_EQ(server.stats().dropped_stale, 1u);
  EXPECT_EQ(server.stats().total_seen(), delivered.size());
}

TEST(ReorderBoundary, EqualTimestampsReleaseInReportIdOrder) {
  // Same reported second, arrival order 5, 9, 3: the (time, report_id)
  // buffer key must release 3, 5, 9.
  const auto urls = two_urls();
  auto server = make_server({.sigma = 20,
                             .whitelisted_domains = {},
                             .reorder_horizon_s = 1'000'000.0},
                            urls, /*trusted=*/false);
  const std::vector<DeliveredReport> delivered = {
      {make_event(5, 0, 0, 500), 5, 600, 0, false},
      {make_event(9, 1, 0, 500), 9, 610, 0, false},
      {make_event(3, 2, 0, 500), 3, 620, 0, false},
  };
  const auto out = collect(server, delivered);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].file(), (FileId{3}));
  EXPECT_EQ(out[1].file(), (FileId{5}));
  EXPECT_EQ(out[2].file(), (FileId{9}));
}

TEST(StreamingWindows, WatermarkAdvanceClosesEmptyWindows) {
  StreamingConfig cfg;
  cfg.policy = {.sigma = 20, .whitelisted_domains = {}};
  cfg.window_s = 100;
  cfg.num_files = 50;
  cfg.period_end = 500;
  const auto urls = two_urls();
  StreamingCollectionServer server(std::move(cfg), urls);

  std::vector<EventWindow> closed;
  const std::vector<DeliveredReport> chunk = {
      {make_event(0, 0, 0, 50), 0, 50, 0, false},
      {make_event(1, 1, 0, 450), 1, 450, 0, false},
  };
  server.ingest(chunk, closed);
  // The watermark jumped to 450: windows 0-3 are final — including the
  // empty middle ones — while the second event waits in the open window.
  ASSERT_EQ(closed.size(), 4u);
  EXPECT_EQ(closed[0].events.size(), 1u);
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_EQ(closed[k].events.size(), 0u);
    EXPECT_EQ(closed[k].begin, static_cast<model::Timestamp>(k) * 100);
    EXPECT_EQ(closed[k].end, static_cast<model::Timestamp>(k + 1) * 100);
  }
  EXPECT_EQ(server.watermark(), 450);
  EXPECT_EQ(server.pending(), 1u);
  EXPECT_TRUE(server.conserved());

  server.finish(closed);
  ASSERT_EQ(closed.size(), 5u);
  EXPECT_EQ(closed[4].events.size(), 1u);
  EXPECT_EQ(closed[4].end, 500);
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_TRUE(server.conserved());
  EXPECT_EQ(server.stats().accepted, 2u);
}

}  // namespace
}  // namespace longtail::telemetry
