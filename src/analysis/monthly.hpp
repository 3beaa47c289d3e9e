// Table I: monthly summary of the collected data — machines, events, and
// the verdict breakdown of the distinct processes, files, and URLs
// observed each month. Its counter, `count_slots`, also counts the rows
// of Tables X-XII and XIV (analysis/processes.cpp): there a slot is a
// table row instead of a month.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/annotated.hpp"
#include "model/time.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

// Distinct entities in each slot, and in any slot (slot kSlots), split
// by class.
template <std::size_t kSlots, std::size_t kClasses>
struct SlotCounts {
  std::array<std::array<std::uint64_t, kClasses>, kSlots + 1> by_class{};
  std::array<std::uint64_t, kSlots + 1> total{};

  template <typename C>
  [[nodiscard]] double pct(std::size_t slot, C c) const {
    return util::percent(by_class[slot][static_cast<std::size_t>(c)],
                         total[slot]);
  }
};

// The class of entities that have none (machines).
struct NoClass {
  constexpr std::size_t operator()(std::size_t) const { return 0; }
};

// Counts one word per entity: bit s of words[i] puts entity i in slot s
// (no bit from kSlots up may be set), and class_of(i) is its class (a
// verdict, say).
template <std::size_t kSlots, std::size_t kClasses = 1, typename Word,
          typename ClassOf = NoClass>
SlotCounts<kSlots, kClasses> count_slots(const std::vector<Word>& words,
                                         ClassOf class_of = {}) {
  static_assert(kSlots <= std::numeric_limits<Word>::digits,
                "one bit per slot must fit the word");
  SlotCounts<kSlots, kClasses> out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    Word seen = words[i];
    if (seen == 0) continue;
    const auto c = static_cast<std::size_t>(class_of(i));
    for (; seen != 0; seen &= seen - 1) {
      const auto s = static_cast<std::size_t>(std::countr_zero(seen));
      ++out.by_class[s][c];
      ++out.total[s];
    }
    ++out.by_class[kSlots][c];
    ++out.total[kSlots];
  }
  return out;
}

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
