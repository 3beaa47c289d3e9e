// Fault-injection transport + hardened collection-server ingest:
//   * Faults — FaultProfile spec/parse/preset/cache-key behaviour;
//   * Transport — the simulated lossy channel (drop, duplicate,
//     reorder, skew, corruption) and its determinism guarantees;
//   * Quarantine — the server-side dedup/quarantine/reorder defenses and
//     the conservation law accepted + drops + quarantine == total_seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "model/time.hpp"
#include "synth/generator.hpp"
#include "telemetry/collection.hpp"
#include "telemetry/faults.hpp"
#include "telemetry/streaming.hpp"
#include "tests/collection_harness.hpp"
#include "telemetry/transport.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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
using test::collect;
using test::make_server;

DownloadEvent make_event(std::uint32_t file, std::uint32_t machine,
                         std::uint32_t url, Timestamp t,
                         bool executed = true) {
  return DownloadEvent{FileId{file}, MachineId{machine}, ProcessId{0},
                       UrlId{url}, t, executed};
}

// A time-sorted synthetic agent stream spread over the whole collection
// window, with a sprinkle of non-executed downloads.
std::vector<DownloadEvent> make_stream(std::size_t n) {
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  util::Rng rng(7);
  std::vector<DownloadEvent> raw;
  raw.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    raw.push_back(make_event(
        static_cast<std::uint32_t>(rng.uniform(40)),
        static_cast<std::uint32_t>(rng.uniform(25)),
        static_cast<std::uint32_t>(rng.uniform(2)),
        static_cast<Timestamp>(rng.uniform(
            static_cast<std::uint64_t>(period_end - 1000))),
        !rng.bernoulli(0.1)));
  std::sort(raw.begin(), raw.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  return raw;
}

std::vector<UrlMeta> two_urls() {
  return {UrlMeta{DomainId{0}, 0}, UrlMeta{DomainId{1}, 0}};
}

FaultProfile lossy_profile() {
  FaultProfile p;
  p.drop_rate = 0.05;
  p.ack_loss_rate = 0.10;
  p.delivery_jitter_s = 300.0;
  p.clock_skew_s = 120.0;
  p.corrupt_rate = 0.01;
  return p;
}

bool same_delivery(const std::vector<DeliveredReport>& a,
                   const std::vector<DeliveredReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.report_id != y.report_id || x.arrival != y.arrival ||
        x.copy != y.copy || x.corrupted != y.corrupted ||
        x.event.file != y.event.file || x.event.machine != y.event.machine ||
        x.event.url != y.event.url || x.event.time != y.event.time ||
        x.event.executed != y.event.executed)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------- Faults

TEST(Faults, ZeroProfileIsInactive) {
  const FaultProfile p;
  EXPECT_FALSE(p.transport_active());
  EXPECT_FALSE(p.labels_active());
  EXPECT_FALSE(p.any());
  EXPECT_EQ(p.spec(), "");
  EXPECT_EQ(p.cache_key(), "");
}

TEST(Faults, SpecRoundTrips) {
  const FaultProfile p = parse_fault_profile(
      "drop=0.01,dup=0.05,jitter=120,skew=60,corrupt=0.002,vt_loss=0.05,"
      "label_delay=14");
  EXPECT_DOUBLE_EQ(p.drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(p.ack_loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(p.delivery_jitter_s, 120.0);
  EXPECT_DOUBLE_EQ(p.clock_skew_s, 60.0);
  EXPECT_DOUBLE_EQ(p.corrupt_rate, 0.002);
  EXPECT_DOUBLE_EQ(p.vt_loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(p.label_delay_mean_days, 14.0);
  const FaultProfile reparsed = parse_fault_profile(p.spec());
  EXPECT_EQ(reparsed.spec(), p.spec());
  EXPECT_EQ(reparsed.cache_key(), p.cache_key());
}

TEST(Faults, NamedProfilesExist) {
  EXPECT_TRUE(named_fault_profile("off").has_value());
  EXPECT_FALSE(named_fault_profile("off")->any());
  for (const char* name : {"mild", "moderate", "severe"}) {
    const auto p = named_fault_profile(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_TRUE(p->transport_active()) << name;
    EXPECT_TRUE(p->labels_active()) << name;
  }
  EXPECT_FALSE(named_fault_profile("bogus").has_value());
  // Severity is ordered.
  EXPECT_LT(named_fault_profile("mild")->drop_rate,
            named_fault_profile("moderate")->drop_rate);
  EXPECT_LT(named_fault_profile("moderate")->drop_rate,
            named_fault_profile("severe")->drop_rate);
}

TEST(Faults, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_profile("nonsense=1"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_profile("drop"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_profile("drop=abc"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_profile("drop=0.1x"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_profile("drop=1.5"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_profile("drop=-0.1"), std::runtime_error);
}

std::string fault_parse_error(std::string_view text) {
  try {
    (void)parse_fault_profile(text);
  } catch (const std::runtime_error& ex) {
    return ex.what();
  }
  return {};
}

// The rejection is only actionable if the diagnostic names the offending
// key/value (and, for a typo'd key, lists the keys that do exist) — the
// faults_from_env warning prints exactly this message.
TEST(Faults, ParserDiagnosticsNameOffendingKeyAndValue) {
  const std::string bad_value = fault_parse_error("drop=1.5");
  EXPECT_NE(bad_value.find("fault spec"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("'drop'"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("'1.5'"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("[0, 1]"), std::string::npos) << bad_value;

  const std::string no_eq = fault_parse_error("drop");
  EXPECT_NE(no_eq.find("expected key=value"), std::string::npos) << no_eq;
  EXPECT_NE(no_eq.find("'drop'"), std::string::npos) << no_eq;

  const std::string unknown = fault_parse_error("dorp=0.1");
  EXPECT_NE(unknown.find("unknown key 'dorp'"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("valid keys"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("drop"), std::string::npos) << unknown;
}

TEST(Faults, CacheKeysDistinguishProfiles) {
  const auto mild = named_fault_profile("mild")->cache_key();
  const auto severe = named_fault_profile("severe")->cache_key();
  EXPECT_FALSE(mild.empty());
  EXPECT_NE(mild, severe);
  EXPECT_EQ(mild, named_fault_profile("mild")->cache_key());
}

TEST(Faults, ReorderHorizonCoversJitterAndSkew) {
  const auto p = lossy_profile();
  EXPECT_GE(p.reorder_horizon_s(), p.delivery_jitter_s + p.clock_skew_s);
}

// ------------------------------------------------------------- Transport

TEST(Transport, ZeroProfileIsIdentity) {
  const auto raw = make_stream(200);
  FaultyTransport transport({}, /*seed=*/1);
  const auto out = transport.deliver(raw);
  ASSERT_EQ(out.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(out[i].report_id, i);
    EXPECT_EQ(out[i].arrival, raw[i].time);
    EXPECT_EQ(out[i].copy, 0);
    EXPECT_FALSE(out[i].corrupted);
    EXPECT_EQ(out[i].event.time, raw[i].time);
    EXPECT_EQ(out[i].event.file, raw[i].file);
  }
  EXPECT_EQ(transport.stats().delivered, raw.size());
  EXPECT_EQ(transport.stats().duplicates, 0u);
  EXPECT_EQ(transport.stats().dropped_offline, 0u);
}

TEST(Transport, ChannelAccountingIsConserved) {
  const auto raw = make_stream(3000);
  FaultyTransport transport(lossy_profile(), /*seed=*/42);
  const auto out = transport.deliver(raw);
  const auto& st = transport.stats();
  EXPECT_EQ(st.reports_offered, raw.size());
  EXPECT_EQ(st.dropped_offline + st.unique_delivered(), raw.size());
  EXPECT_EQ(st.delivered, out.size());
  EXPECT_EQ(st.duplicates, st.delivered - st.unique_delivered());
  EXPECT_GT(st.dropped_offline, 0u);
  EXPECT_GT(st.duplicates, 0u);
  EXPECT_GT(st.corrupted, 0u);
}

TEST(Transport, OutputSortedByArrivalWithTotalOrder) {
  const auto raw = make_stream(2000);
  FaultyTransport transport(lossy_profile(), /*seed=*/42);
  const auto out = transport.deliver(raw);
  for (std::size_t i = 1; i < out.size(); ++i) {
    const auto a = std::tuple(out[i - 1].arrival, out[i - 1].report_id,
                              out[i - 1].copy);
    const auto b = std::tuple(out[i].arrival, out[i].report_id, out[i].copy);
    EXPECT_LT(a, b);
  }
}

TEST(Transport, DuplicatesShareReportIdAndBackOff) {
  FaultProfile p;
  p.ack_loss_rate = 1.0;  // every ack lost: always max_retransmits copies
  p.max_retransmits = 3;
  p.backoff_base_s = 30.0;
  p.backoff_cap_s = 480.0;
  const std::vector<DownloadEvent> raw = {make_event(0, 0, 0, 1000)};
  FaultyTransport transport(p, /*seed=*/5);
  const auto out = transport.deliver(raw);
  ASSERT_EQ(out.size(), 4u);  // original + 3 retransmits
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].report_id, 0u);
    EXPECT_EQ(out[i].copy, i);
    EXPECT_EQ(out[i].event.time, 1000);
  }
  // Capped exponential backoff: 30, 60, 120 seconds between copies.
  EXPECT_EQ(out[1].arrival - out[0].arrival, 30);
  EXPECT_EQ(out[2].arrival - out[1].arrival, 60);
  EXPECT_EQ(out[3].arrival - out[2].arrival, 120);
  EXPECT_EQ(transport.stats().duplicates, 3u);
}

TEST(Transport, ClockSkewIsBoundedAndPerMachine) {
  FaultProfile p;
  p.clock_skew_s = 600.0;
  std::vector<DownloadEvent> raw;
  for (std::uint32_t i = 0; i < 200; ++i)
    raw.push_back(make_event(i, i % 5, 0, 100'000 + i));
  FaultyTransport transport(p, /*seed=*/11);
  const auto out = transport.deliver(raw);
  ASSERT_EQ(out.size(), raw.size());
  std::array<std::vector<Timestamp>, 5> offsets;
  for (const auto& r : out) {
    const auto& original = raw[r.report_id];
    const Timestamp offset = r.event.time - original.time;
    EXPECT_LE(std::abs(offset), 600);
    offsets[original.machine.raw()].push_back(offset);
  }
  bool any_nonzero = false;
  for (const auto& per_machine : offsets) {
    for (const Timestamp o : per_machine) {
      EXPECT_EQ(o, per_machine.front());  // one offset per machine
      any_nonzero = any_nonzero || o != 0;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Transport, DeterministicAcrossThreadCounts) {
  const auto raw = make_stream(4000);
  std::vector<DeliveredReport> first;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    FaultyTransport transport(lossy_profile(), /*seed=*/42);
    auto out = transport.deliver(raw);
    if (first.empty())
      first = std::move(out);
    else
      EXPECT_TRUE(same_delivery(first, out)) << "threads=" << threads;
  }
  util::set_global_threads(util::ThreadPool::default_threads());
}

TEST(Transport, RerunsAreBitIdentical) {
  const auto raw = make_stream(1000);
  FaultyTransport a(lossy_profile(), /*seed=*/42);
  FaultyTransport b(lossy_profile(), /*seed=*/42);
  EXPECT_TRUE(same_delivery(a.deliver(raw), b.deliver(raw)));
  FaultyTransport c(lossy_profile(), /*seed=*/43);
  EXPECT_FALSE(same_delivery(a.deliver(raw), c.deliver(raw)));
}

TEST(Transport, GeneratorDatasetDeterministicUnderFaults) {
  auto profile = synth::paper_calibration(0.01);
  profile.faults = *named_fault_profile("moderate");
  std::uint64_t fingerprint = 0;
  for (const unsigned threads : {1u, 2u}) {
    util::set_global_threads(threads);
    const auto ds = synth::generate_dataset(profile);
    const std::uint64_t fp = core::dataset_fingerprint(ds);
    if (fingerprint == 0)
      fingerprint = fp;
    else
      EXPECT_EQ(fp, fingerprint);
    // Conservation holds end-to-end through the generator.
    EXPECT_EQ(ds.collection_stats.total_seen(), ds.transport_stats.delivered);
    EXPECT_GT(ds.transport_stats.duplicates, 0u);
  }
  util::set_global_threads(util::ThreadPool::default_threads());

  // And the faults actually changed the dataset vs the fault-free seed.
  const auto clean = synth::generate_dataset(synth::paper_calibration(0.01));
  EXPECT_NE(core::dataset_fingerprint(clean), fingerprint);
}

// ------------------------------------------------------------ Quarantine

TEST(Quarantine, MalformedPayloadsAreQuarantined) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 20, .whitelisted_domains = {}}, urls,
                            /*trusted=*/false);
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  std::vector<DeliveredReport> delivered = {
      {make_event(0, 0, 0, 100), 0, 100, 0, false},          // fine
      {make_event(0, 1, 7, 110), 1, 110, 0, true},           // url OOB
      {make_event(90, 2, 0, 120), 2, 120, 0, true},          // file OOB
      {make_event(1, 3, 0, -5), 3, 130, 0, true},            // negative time
      {make_event(1, 4, 0, period_end + 10), 4, 140, 0, true},  // far future
  };
  const auto out = collect(server, delivered);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(server.stats().accepted, 1u);
  EXPECT_EQ(server.stats().quarantined_malformed, 4u);
  EXPECT_EQ(server.stats().total_seen(), delivered.size());
}

TEST(Quarantine, DuplicateCopiesAreDroppedOnce) {
  const auto urls = two_urls();
  auto server = make_server({.sigma = 20, .whitelisted_domains = {}}, urls,
                            /*trusted=*/false);
  std::vector<DeliveredReport> delivered = {
      {make_event(0, 0, 0, 100), 0, 100, 0, false},
      {make_event(0, 0, 0, 100), 0, 130, 1, false},
      {make_event(0, 0, 0, 100), 0, 190, 2, false},
      {make_event(1, 1, 0, 200), 1, 200, 0, false},
  };
  const auto out = collect(server, delivered);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(server.stats().dropped_duplicate, 2u);
  EXPECT_EQ(server.stats().total_seen(), delivered.size());
}

TEST(Quarantine, ReorderBufferRestoresTimeOrder) {
  const auto urls = two_urls();
  auto server = make_server(
      {.sigma = 20, .whitelisted_domains = {}, .reorder_horizon_s = 700.0},
      urls, /*trusted=*/false);
  // Arrival order 2000, 2010 but occurrence order 1500, 1400. The second
  // event lags its arrival by 610 s — within the 700 s horizon, so the
  // server must emit both in occurrence order.
  std::vector<DeliveredReport> delivered = {
      {make_event(0, 0, 0, 1500), 0, 2000, 0, false},
      {make_event(1, 1, 0, 1400), 1, 2010, 0, false},
  };
  const auto out = collect(server, delivered);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.time_column()[0], 1400);
  EXPECT_EQ(out.time_column()[1], 1500);
  EXPECT_EQ(server.stats().dropped_stale, 0u);
}

TEST(Quarantine, LateBeyondHorizonIsDroppedStale) {
  const auto urls = two_urls();
  auto server = make_server(
      {.sigma = 20, .whitelisted_domains = {}, .reorder_horizon_s = 100.0},
      urls, /*trusted=*/false);
  std::vector<DeliveredReport> delivered = {
      {make_event(0, 0, 0, 1000), 0, 1000, 0, false},
      // Watermark advances to 2000 - 100 = 1900, releasing report 0; this
      // event's occurrence (500) precedes the released range — stale.
      {make_event(1, 1, 0, 500), 1, 2000, 0, false},
  };
  const auto out = collect(server, delivered);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.time_column()[0], 1000);
  EXPECT_EQ(server.stats().dropped_stale, 1u);
  EXPECT_EQ(server.stats().total_seen(), delivered.size());
}

TEST(Quarantine, TransportStreamOrderIsRepairedEndToEnd) {
  const auto raw = make_stream(3000);
  const auto profile = lossy_profile();
  FaultyTransport transport(profile, /*seed=*/42);
  const auto delivered = transport.deliver(raw);
  const auto urls = two_urls();
  auto server =
      make_server({.sigma = 20,
                   .whitelisted_domains = {},
                   .reorder_horizon_s = profile.reorder_horizon_s()},
                  urls, /*trusted=*/false);
  const auto out = collect(server, delivered);
  // The reorder horizon covers jitter + skew for first copies, so nothing
  // in-budget is lost and the accepted stream is time-sorted again.
  EXPECT_EQ(server.stats().dropped_stale, 0u);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(out.time_column()[i - 1], out.time_column()[i]);
  // Corruption is always detectable, so only corrupted copies can be
  // quarantined — but a corrupted copy whose report_id was already seen is
  // counted as a duplicate instead (dedup runs before validation).
  EXPECT_GT(server.stats().quarantined_malformed, 0u);
  EXPECT_LE(server.stats().quarantined_malformed, transport.stats().corrupted);
}

TEST(Quarantine, ConservationHoldsForEveryNamedProfile) {
  const auto raw = make_stream(2500);
  const auto urls = two_urls();
  for (const char* name : {"off", "mild", "moderate", "severe"}) {
    const auto profile = *named_fault_profile(name);
    FaultyTransport transport(profile, /*seed=*/9);
    const auto delivered = transport.deliver(raw);
    auto server =
        make_server({.sigma = 20,
                     .whitelisted_domains = {},
                     .reorder_horizon_s = profile.reorder_horizon_s()},
                    urls, /*trusted=*/false);
    (void)collect(server, delivered);
    EXPECT_EQ(server.stats().total_seen(), delivered.size()) << name;
    EXPECT_EQ(server.stats().total_seen(), transport.stats().delivered)
        << name;
  }
}

TEST(Quarantine, FilteredOutputIdenticalAcrossThreadCounts) {
  const auto raw = make_stream(4000);
  const auto profile = lossy_profile();
  const auto urls = two_urls();
  EventStore first;
  CollectionStats first_stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    FaultyTransport transport(profile, /*seed=*/42);
    const auto delivered = transport.deliver(raw);
    auto server =
        make_server({.sigma = 20,
                     .whitelisted_domains = {},
                     .reorder_horizon_s = profile.reorder_horizon_s()},
                    urls, /*trusted=*/false);
    auto out = collect(server, delivered);
    if (first.size() == 0) {
      first = std::move(out);
      first_stats = server.stats();
      continue;
    }
    ASSERT_EQ(out.size(), first.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.file_column()[i], first.file_column()[i]);
      EXPECT_EQ(out.machine_column()[i], first.machine_column()[i]);
      EXPECT_EQ(out.url_column()[i], first.url_column()[i]);
      EXPECT_EQ(out.time_column()[i], first.time_column()[i]);
    }
    EXPECT_EQ(server.stats().accepted, first_stats.accepted);
    EXPECT_EQ(server.stats().dropped_duplicate, first_stats.dropped_duplicate);
    EXPECT_EQ(server.stats().quarantined_malformed,
              first_stats.quarantined_malformed);
    EXPECT_EQ(server.stats().dropped_stale, first_stats.dropped_stale);
  }
  util::set_global_threads(util::ThreadPool::default_threads());
}

}  // namespace
}  // namespace longtail::telemetry
