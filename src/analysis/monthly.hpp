// Table I: monthly summary of the collected data — machines, events, and
// the verdict breakdown of the distinct processes, files, and URLs
// observed each month.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/annotated.hpp"
#include "model/time.hpp"

namespace longtail::analysis {

struct MonthlyRow {
  std::uint64_t machines = 0;
  std::uint64_t events = 0;

  std::uint64_t processes = 0;
  double proc_benign = 0, proc_likely_benign = 0;
  double proc_malicious = 0, proc_likely_malicious = 0;

  std::uint64_t files = 0;
  double file_benign = 0, file_likely_benign = 0;
  double file_malicious = 0, file_likely_malicious = 0;

  std::uint64_t urls = 0;
  double url_benign = 0, url_malicious = 0;

  friend bool operator==(const MonthlyRow&, const MonthlyRow&) = default;
};

struct MonthlySummary {
  std::array<MonthlyRow, model::kNumCollectionMonths> months{};
  MonthlyRow overall;  // distinct entities over the whole period

  friend bool operator==(const MonthlySummary&,
                         const MonthlySummary&) = default;
};

// The label-free state of Table I, shared by the batch scan and the
// streaming snapshot (analysis/streaming.hpp). One byte per machine,
// process, file and URL has bit `month_of(t)` set for every month the
// entity appears in (the eight calendar months fit in a byte), plus the
// event count per month. Shards merge by OR and sum, so the state
// depends only on the set of events added.
struct MonthlyTally {
  std::vector<std::uint8_t> machines, processes, files, urls;
  std::array<std::uint64_t, model::kNumCalendarMonths> events{};

  MonthlyTally() = default;  // empty; scan_reduce's shard slots need it
  // Sized for `corpus`'s entity tables.
  explicit MonthlyTally(const telemetry::Corpus& corpus);

  void add(telemetry::EventStore::EventRef e);
  void merge(const MonthlyTally& other);
};

// Finishes a tally into Table I: distinct counts per month and overall,
// with the verdict percentages applied from `a`'s labels.
MonthlySummary summarize_tally(const AnnotatedCorpus& a,
                               const MonthlyTally& t);

MonthlySummary monthly_summary(const AnnotatedCorpus& a);

}  // namespace longtail::analysis
