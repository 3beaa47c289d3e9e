#include "groundtruth/labeler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "dataset_fixture.hpp"

namespace longtail::groundtruth {
namespace {

using model::Verdict;

VtReport detection_by(std::uint16_t engine) {
  VtReport r;
  r.first_scan = 0;
  r.last_scan = 720 * model::kSecondsPerDay;
  r.detections.push_back({engine, "Trojan.Gen"});
  return r;
}

TEST(Labeler, WhitelistedIsBenignRegardlessOfVt) {
  Labeler labeler;
  EXPECT_EQ(labeler.verdict(true, std::nullopt), Verdict::kBenign);
  // Whitelist wins even with a (noisy) detection present.
  EXPECT_EQ(labeler.verdict(true, detection_by(0)), Verdict::kBenign);
}

TEST(Labeler, NoEvidenceIsUnknown) {
  Labeler labeler;
  EXPECT_EQ(labeler.verdict(false, std::nullopt), Verdict::kUnknown);
}

TEST(Labeler, CleanLongSpanIsBenign) {
  Labeler labeler;
  VtReport r;
  r.first_scan = 0;
  r.last_scan = 100 * model::kSecondsPerDay;
  EXPECT_EQ(labeler.verdict(false, r), Verdict::kBenign);
}

TEST(Labeler, CleanShortSpanIsLikelyBenign) {
  Labeler labeler;
  VtReport r;
  r.first_scan = 0;
  r.last_scan = 13 * model::kSecondsPerDay;
  EXPECT_EQ(labeler.verdict(false, r), Verdict::kLikelyBenign);
}

TEST(Labeler, FourteenDaySpanBoundaryIsBenign) {
  Labeler labeler;
  VtReport r;
  r.first_scan = 0;
  r.last_scan = 14 * model::kSecondsPerDay;
  EXPECT_EQ(labeler.verdict(false, r), Verdict::kBenign);
}

TEST(Labeler, TrustedDetectionIsMalicious) {
  Labeler labeler;
  for (std::uint16_t e = 0; e < kNumTrustedEngines; ++e)
    EXPECT_EQ(labeler.verdict(false, detection_by(e)), Verdict::kMalicious)
        << engine_name(e);
}

TEST(Labeler, OnlyUntrustedDetectionIsLikelyMalicious) {
  Labeler labeler;
  for (std::uint16_t e = kNumTrustedEngines; e < kNumEngines; e += 7)
    EXPECT_EQ(labeler.verdict(false, detection_by(e)),
              Verdict::kLikelyMalicious)
        << engine_name(e);
}

TEST(Labeler, MixedDetectionsAreMalicious) {
  Labeler labeler;
  VtReport r = detection_by(25);
  r.detections.push_back({2, "TROJ_GEN.R002"});
  EXPECT_EQ(labeler.verdict(false, r), Verdict::kMalicious);
}

TEST(Labeler, AsOfHidesFutureSignatures) {
  Labeler labeler;
  VtReport r;
  r.first_scan = 10 * model::kSecondsPerDay;
  r.last_scan = 720 * model::kSecondsPerDay;
  r.detections.push_back({0, "Trojan.Gen", 100 * model::kSecondsPerDay});

  // Before the first scan: VT has no record at all.
  EXPECT_EQ(labeler.verdict_as_of(false, r, 5 * model::kSecondsPerDay),
            model::Verdict::kUnknown);
  // Scanned but the signature does not exist yet: clean short span.
  EXPECT_EQ(labeler.verdict_as_of(false, r, 12 * model::kSecondsPerDay),
            model::Verdict::kLikelyBenign);
  // Clean long span: the premature "benign" trap.
  EXPECT_EQ(labeler.verdict_as_of(false, r, 60 * model::kSecondsPerDay),
            model::Verdict::kBenign);
  // After the signature lands: malicious.
  EXPECT_EQ(labeler.verdict_as_of(false, r, 150 * model::kSecondsPerDay),
            model::Verdict::kMalicious);
  // Whitelist always wins.
  EXPECT_EQ(labeler.verdict_as_of(true, r, 0), model::Verdict::kBenign);
}

TEST(Labeler, AsOfAtFinalTimeMatchesPlainVerdict) {
  Labeler labeler;
  VtReport r;
  r.first_scan = 0;
  r.last_scan = 720 * model::kSecondsPerDay;
  r.detections.push_back({3, "Backdoor.Win32.Agent.a",
                          30 * model::kSecondsPerDay});
  EXPECT_EQ(labeler.verdict_as_of(false, r, r.last_scan),
            labeler.verdict(false, r));
}

TEST(VtReportAsOf, TruncatesDetectionsAndSpan) {
  VtReport r;
  r.first_scan = 0;
  r.last_scan = 100 * model::kSecondsPerDay;
  r.detections.push_back({0, "a", 10 * model::kSecondsPerDay});
  r.detections.push_back({1, "b", 50 * model::kSecondsPerDay});
  const auto early = r.as_of(20 * model::kSecondsPerDay);
  EXPECT_EQ(early.detections.size(), 1u);
  EXPECT_EQ(early.scan_span_days(), 20);
  const auto late = r.as_of(200 * model::kSecondsPerDay);
  EXPECT_EQ(late.detections.size(), 2u);
  EXPECT_EQ(late.scan_span_days(), 100);
}

TEST(Labeler, LabelAllCoversFilesAndProcesses) {
  Labeler labeler;
  Whitelist wl;
  wl.add(model::FileId{0});
  wl.add(model::ProcessId{1});
  VtDatabase vt;
  vt.set_file_count(3);
  vt.set_process_count(2);
  vt.put(model::FileId{1}, detection_by(0));
  const LabelSet labels = labeler.label_all(3, 2, wl, vt);
  EXPECT_EQ(labels.of(model::FileId{0}), Verdict::kBenign);
  EXPECT_EQ(labels.of(model::FileId{1}), Verdict::kMalicious);
  EXPECT_EQ(labels.of(model::FileId{2}), Verdict::kUnknown);
  EXPECT_EQ(labels.of(model::ProcessId{0}), Verdict::kUnknown);
  EXPECT_EQ(labels.of(model::ProcessId{1}), Verdict::kBenign);
}

// verdict_as_of is computed in one pass over the detections; its
// definition is the verdict of the report as a query at `when` would have
// returned it, with no record at all before the first scan.
Verdict reference_as_of(const Labeler& labeler, bool whitelisted,
                        const std::optional<VtReport>& vt,
                        model::Timestamp when) {
  if (whitelisted) return Verdict::kBenign;
  if (!vt.has_value() || vt->first_scan > when) return Verdict::kUnknown;
  return labeler.verdict(false, vt->as_of(when));
}

// Every moment at which the as-of verdict of `r` can change, and the
// seconds on either side of it.
std::vector<model::Timestamp> probe_times(const VtReport& r) {
  constexpr model::Timestamp kMax =
      std::numeric_limits<model::Timestamp>::max();
  std::vector<model::Timestamp> breakpoints = {
      r.first_scan, r.first_scan + 14 * model::kSecondsPerDay, r.last_scan};
  for (const auto& det : r.detections)
    breakpoints.push_back(det.signature_time);
  std::vector<model::Timestamp> out;
  for (const auto t : breakpoints) {
    out.push_back(t);
    if (t > std::numeric_limits<model::Timestamp>::min()) out.push_back(t - 1);
    if (t < kMax) out.push_back(t + 1);
  }
  return out;
}

// Compares verdict_as_of with the reference at every probe time of `vt`,
// whitelisted or not. Returns the number of comparisons made.
std::size_t expect_matches_reference(const Labeler& labeler,
                                     const std::optional<VtReport>& vt,
                                     const std::vector<model::Timestamp>& at) {
  std::size_t checked = 0;
  for (const bool whitelisted : {false, true}) {
    for (const auto t : at) {
      EXPECT_EQ(labeler.verdict_as_of(whitelisted, vt, t),
                reference_as_of(labeler, whitelisted, vt, t))
          << "when=" << t << " whitelisted=" << whitelisted;
      ++checked;
    }
  }
  return checked;
}

TEST(VerdictAsOfReference, MatchesAtEveryBreakpointOfAWorld) {
  const Labeler labeler;
  const auto& ds = test::shared_pipeline(0.02).dataset();
  std::size_t reports = 0, checked = 0;
  auto check = [&](const std::optional<VtReport>& vt) {
    if (!vt.has_value()) return;
    ++reports;
    checked += expect_matches_reference(labeler, vt, probe_times(*vt));
  };
  for (std::size_t f = 0; f < ds.vt.file_report_count(); ++f)
    check(ds.vt.query(model::FileId{static_cast<std::uint32_t>(f)}));
  for (std::size_t p = 0; p < ds.vt.process_report_count(); ++p)
    check(ds.vt.query(model::ProcessId{static_cast<std::uint32_t>(p)}));
  EXPECT_GT(reports, 1000u);
  EXPECT_GT(checked, 10 * reports);
  // No report at all: unknown unless whitelisted, at any time.
  expect_matches_reference(labeler, std::nullopt, {0, 1, -1});
}

TEST(VerdictAsOfReference, MatchesOnHostileReports) {
  constexpr auto kMin = std::numeric_limits<model::Timestamp>::min();
  constexpr auto kMax = std::numeric_limits<model::Timestamp>::max();
  constexpr model::Timestamp kDay = model::kSecondsPerDay;
  const Labeler labeler;

  std::vector<VtReport> hostile;
  // One trusted engine listed 64 times (the LTDS loader does not check
  // that engines are distinct), signatures spread around the scans.
  VtReport repeated;
  repeated.first_scan = 10 * kDay;
  repeated.last_scan = 400 * kDay;
  for (int i = 0; i < 64; ++i)
    repeated.detections.push_back({0, "Trojan.Gen", (i - 8) * 5 * kDay});
  hostile.push_back(repeated);
  // Engine ids past the roster: not trusted, so likely malicious.
  VtReport off_roster;
  off_roster.first_scan = kDay;
  off_roster.last_scan = 100 * kDay;
  off_roster.detections.push_back({kNumEngines, "x", 2 * kDay});
  off_roster.detections.push_back({0xFFFF, "y", 3 * kDay});
  hostile.push_back(off_roster);
  // Last scan before the first: a negative span is never benign.
  VtReport reversed;
  reversed.first_scan = 50 * kDay;
  reversed.last_scan = 20 * kDay;
  hostile.push_back(reversed);
  reversed.detections.push_back({3, "z", 30 * kDay});
  hostile.push_back(reversed);
  // Signatures before the first scan and at the int64 limits.
  VtReport limits;
  limits.first_scan = 100 * kDay;
  limits.last_scan = 300 * kDay;
  limits.detections.push_back({12, "a", kMin});
  limits.detections.push_back({1, "b", kMax});
  limits.detections.push_back({2, "c", 40 * kDay});
  hostile.push_back(limits);
  limits.detections.erase(limits.detections.begin() + 2);
  hostile.push_back(limits);
  // Clean, with the first scan at a limit of time.
  VtReport clean_at_min;
  clean_at_min.first_scan = kMin;
  clean_at_min.last_scan = kMin + 20 * kDay;
  hostile.push_back(clean_at_min);

  for (const auto& r : hostile) {
    auto at = probe_times(r);
    at.insert(at.end(), {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax});
    expect_matches_reference(labeler, r, at);
  }
  // The repeated trusted engine turns malicious at its first visible
  // signature, whatever the other 63 entries say.
  EXPECT_EQ(labeler.verdict_as_of(false, repeated, 10 * kDay),
            Verdict::kMalicious);
  EXPECT_EQ(labeler.verdict_as_of(false, reversed, kMax), Verdict::kMalicious);
  EXPECT_EQ(labeler.verdict_as_of(false, off_roster, kMax),
            Verdict::kLikelyMalicious);
}

}  // namespace
}  // namespace longtail::groundtruth
