// Streaming ingest invariants: for every window width and every chunking
// of the delivered stream, the concatenation of the closed windows is
// identical to one ingest of the whole stream into a single window — same
// events, same order, same CollectionStats — and the §II-A conservation
// law holds at every watermark, not just at end-of-stream. The trusted
// fast path, and `collect_in_order`'s delivery of the same events, must
// be indistinguishable from the untrusted path on a fault-free stream.
#include "telemetry/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "telemetry/collection.hpp"
#include "telemetry/transport.hpp"
#include "tests/collection_harness.hpp"
#include "tests/scoped_env.hpp"

namespace longtail::telemetry {
namespace {

using model::DomainId;
using model::DownloadEvent;
using model::FileId;
using model::MachineId;
using model::ProcessId;
using model::Timestamp;
using model::UrlId;
using model::UrlMeta;

constexpr Timestamp kPeriodEnd = 20'000;
constexpr std::size_t kNumFiles = 37;

DownloadEvent make_event(std::uint32_t file, std::uint32_t machine,
                         std::uint32_t url, Timestamp t, bool executed) {
  return DownloadEvent{FileId{file}, MachineId{machine}, ProcessId{0},
                       UrlId{url}, t, executed};
}

std::vector<UrlMeta> two_urls() {
  return {UrlMeta{DomainId{0}, 0}, UrlMeta{DomainId{1}, 0}};
}

// A deterministic mildly hostile stream: out-of-order reported times,
// duplicate copies, and a few malformed payloads, sorted by arrival as
// FaultyTransport::deliver would emit it.
std::vector<DeliveredReport> hostile_stream() {
  std::vector<DeliveredReport> out;
  for (std::uint32_t i = 0; i < 400; ++i) {
    const auto t = static_cast<Timestamp>((i * 53) % (kPeriodEnd - 1));
    DeliveredReport r{
        make_event(i % kNumFiles, i % 11, i % 2, t, (i % 5) != 0), i,
        t + static_cast<Timestamp>((i * 7) % 200), 0, false};
    if (i % 97 == 0) r.event.file = FileId{1'000};  // malformed: id OOB
    out.push_back(r);
    if (i % 13 == 0) {  // retransmitted copy, later arrival
      DeliveredReport dup = r;
      dup.copy = 1;
      dup.arrival += 37;
      out.push_back(dup);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DeliveredReport& a, const DeliveredReport& b) {
                     return a.arrival < b.arrival;
                   });
  return out;
}

// A fault-free stream honoring the trusted-channel contract: exactly
// once, reported-time order, arrival == time.
std::vector<DeliveredReport> clean_stream() {
  std::vector<DeliveredReport> out;
  for (std::uint32_t i = 0; i < 400; ++i) {
    const auto t = static_cast<Timestamp>((i * 53) % (kPeriodEnd - 1));
    out.push_back(DeliveredReport{
        make_event(i % kNumFiles, i % 11, i % 2, t, (i % 5) != 0), i, t, 0,
        false});
  }
  std::sort(out.begin(), out.end(),
            [](const DeliveredReport& a, const DeliveredReport& b) {
              return a.event.time != b.event.time
                         ? a.event.time < b.event.time
                         : a.report_id < b.report_id;
            });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].report_id = i;  // post-sort sequence numbers
    out[i].arrival = out[i].event.time;
  }
  return out;
}

CollectionPolicy test_policy() {
  return {.sigma = 3, .whitelisted_domains = {}, .reorder_horizon_s = 100.0};
}

void expect_same_stats(const CollectionStats& a, const CollectionStats& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.dropped_not_executed, b.dropped_not_executed);
  EXPECT_EQ(a.dropped_prevalence_cap, b.dropped_prevalence_cap);
  EXPECT_EQ(a.dropped_whitelisted_url, b.dropped_whitelisted_url);
  EXPECT_EQ(a.dropped_duplicate, b.dropped_duplicate);
  EXPECT_EQ(a.dropped_stale, b.dropped_stale);
  EXPECT_EQ(a.quarantined_malformed, b.quarantined_malformed);
  EXPECT_EQ(a.total_seen(), b.total_seen());
}

void expect_same_events(const EventStore& a, const EventStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file(), b[i].file()) << "at " << i;
    EXPECT_EQ(a[i].machine(), b[i].machine()) << "at " << i;
    EXPECT_EQ(a[i].process(), b[i].process()) << "at " << i;
    EXPECT_EQ(a[i].url(), b[i].url()) << "at " << i;
    EXPECT_EQ(a[i].time(), b[i].time()) << "at " << i;
    EXPECT_EQ(a[i].executed(), b[i].executed()) << "at " << i;
  }
}

void expect_same_windows(const std::vector<EventWindow>& a,
                         const std::vector<EventWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "window " << i);
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
    expect_same_events(a[i].events, b[i].events);
  }
}

StreamingCollectionServer make_stream_server(Timestamp window_s, bool trusted,
                                             const std::vector<UrlMeta>& urls) {
  StreamingConfig cfg;
  cfg.policy = test_policy();
  cfg.window_s = window_s;
  cfg.num_files = kNumFiles;
  cfg.period_end = kPeriodEnd;
  cfg.trusted = trusted;
  return StreamingCollectionServer(std::move(cfg), urls);
}

// Runs the stream through a StreamingCollectionServer in `chunk`-sized
// pieces and returns (concatenated events, closed windows), checking the
// conservation law after every chunk.
struct StreamResult {
  EventStore events;
  std::vector<EventWindow> windows;
  CollectionStats stats;
};

StreamResult stream_through(const std::vector<DeliveredReport>& delivered,
                            Timestamp window_s, std::size_t chunk,
                            bool trusted,
                            const std::vector<UrlMeta>& urls) {
  auto server = make_stream_server(window_s, trusted, urls);

  StreamResult out;
  for (std::size_t begin = 0; begin < delivered.size(); begin += chunk) {
    const std::size_t end = std::min(delivered.size(), begin + chunk);
    server.ingest({delivered.data() + begin, end - begin}, out.windows);
    EXPECT_TRUE(server.conserved());
  }
  server.finish(out.windows);
  EXPECT_TRUE(server.conserved());
  EXPECT_EQ(server.pending(), 0u);
  for (const auto& w : out.windows) {
    EXPECT_EQ(w.begin, static_cast<Timestamp>(w.index) *
                           (window_s > 0 ? window_s : kPeriodEnd));
    EXPECT_LE(w.end, kPeriodEnd);
    for (std::size_t i = 0; i < w.events.size(); ++i) {
      EXPECT_GE(w.events[i].time(), w.begin);
      EXPECT_LT(w.events[i].time(), w.end);
    }
  }
  out.events = test::concat_windows(out.windows);
  out.stats = server.stats();
  return out;
}

// The same stream delivered by `collect_in_order`, from `events` given as
// a vector (`as_store` false) or as an EventStore.
StreamResult collect_through(const std::vector<DownloadEvent>& events,
                             Timestamp window_s, bool trusted, bool as_store,
                             const std::vector<UrlMeta>& urls) {
  auto server = make_stream_server(window_s, trusted, urls);
  StreamResult out;
  if (as_store) {
    EventStore store;
    for (const DownloadEvent& e : events) store.push_back(e);
    out.windows = collect_in_order(server, store);
  } else {
    out.windows = collect_in_order(server, events);
  }
  EXPECT_TRUE(server.conserved());
  EXPECT_EQ(server.pending(), 0u);
  out.events = test::concat_windows(out.windows);
  out.stats = server.stats();
  return out;
}

TEST(StreamingIngest, ConcatenationMatchesBatchForEveryWidthAndChunk) {
  const auto delivered = hostile_stream();
  const auto urls = two_urls();

  // The reference: one ingest of the whole stream into a single window.
  const auto batch = stream_through(delivered, /*window_s=*/0,
                                    /*chunk=*/delivered.size(),
                                    /*trusted=*/false, urls);
  ASSERT_GT(batch.events.size(), 0u);
  // The hostile stream must actually exercise every defense.
  EXPECT_GT(batch.stats.dropped_duplicate, 0u);
  EXPECT_GT(batch.stats.dropped_stale, 0u);
  EXPECT_GT(batch.stats.quarantined_malformed, 0u);
  EXPECT_GT(batch.stats.dropped_prevalence_cap, 0u);

  for (const Timestamp window_s : {Timestamp{0}, Timestamp{64},
                                   Timestamp{512}, Timestamp{7'919},
                                   Timestamp{1'000'000}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{17},
                                    std::size_t{100'000}}) {
      SCOPED_TRACE(testing::Message()
                   << "window_s=" << window_s << " chunk=" << chunk);
      const auto streamed =
          stream_through(delivered, window_s, chunk, /*trusted=*/false, urls);
      expect_same_events(streamed.events, batch.events);
      expect_same_stats(streamed.stats, batch.stats);
    }
  }
}

TEST(StreamingIngest, TrustedPathMatchesUntrustedOnCleanStream) {
  const auto delivered = clean_stream();
  const auto urls = two_urls();
  // clean_stream() numbers its reports by index and delivers each at its
  // reported time — exactly what collect_in_order synthesizes.
  std::vector<DownloadEvent> events;
  for (const DeliveredReport& r : delivered) events.push_back(r.event);

  for (const Timestamp window_s : {Timestamp{0}, Timestamp{512}}) {
    SCOPED_TRACE(testing::Message() << "window_s=" << window_s);
    const auto untrusted =
        stream_through(delivered, window_s, 17, /*trusted=*/false, urls);
    ASSERT_GT(untrusted.events.size(), 0u);
    const auto check = [&](const StreamResult& r) {
      expect_same_events(r.events, untrusted.events);
      expect_same_stats(r.stats, untrusted.stats);
      expect_same_windows(r.windows, untrusted.windows);
    };
    {
      SCOPED_TRACE("trusted, hand-chunked");
      check(stream_through(delivered, window_s, 17, /*trusted=*/true, urls));
    }
    for (const bool trusted : {false, true}) {
      for (const bool as_store : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "collect_in_order trusted=" << trusted
                     << " as_store=" << as_store);
        check(collect_through(events, window_s, trusted, as_store, urls));
      }
    }
  }
}

TEST(StreamingIngest, FinishIsIdempotent) {
  const auto delivered = clean_stream();
  const auto urls = two_urls();
  auto server = make_stream_server(512, /*trusted=*/false, urls);
  std::vector<EventWindow> windows;
  server.ingest(delivered, windows);
  server.finish(windows);
  const std::size_t n = windows.size();
  const auto accepted = server.stats().accepted;
  server.finish(windows);
  EXPECT_EQ(windows.size(), n);
  EXPECT_EQ(server.stats().accepted, accepted);
}

// LONGTAIL_STREAM_WINDOW takes a positive number of seconds; anything
// else, including 0, selects the 7-day default.
TEST(StreamingConfig, WindowFromEnvParsesPositiveSecondsOnly) {
  for (const char* value : {static_cast<const char*>(nullptr), "", "0", "-5",
                            "12x"}) {
    const test::ScopedEnv env("LONGTAIL_STREAM_WINDOW", value);
    EXPECT_EQ(StreamingConfig::window_from_env(), 604'800)
        << (value != nullptr ? value : "(unset)");
  }
  const test::ScopedEnv env("LONGTAIL_STREAM_WINDOW", "3600");
  EXPECT_EQ(StreamingConfig::window_from_env(), 3600);
}

}  // namespace
}  // namespace longtail::telemetry
