// Downloading-process analysis (§V-A, §V-B, §VI-A):
//   * Table X   — download behaviour of *known benign* processes, grouped
//                 into browsers / Windows / Java / Acrobat Reader / other;
//   * Table XI  — download behaviour per browser;
//   * Table XII — download behaviour of malicious processes per type
//                 (declared in analysis/malproc.hpp, defined here);
//   * Table XIV — process categories downloading unknown files.
//
// Each table puts every process in at most one row. One scan keeps the
// events of the processes that have a row; a serial pass sets the row's
// bit in a word per process, machine, infected machine and file; and
// Table I's counter, `count_slots` (analysis/monthly.hpp), counts the
// bits of each row and of their union.
#pragma once

#include <array>
#include <cstdint>

#include "analysis/annotated.hpp"

namespace longtail::analysis {

struct ProcessBehaviorRow {
  std::uint64_t processes = 0;  // distinct process hashes seen downloading
  std::uint64_t machines = 0;   // distinct machines with such a download
  std::uint64_t unknown_files = 0;
  std::uint64_t benign_files = 0;
  std::uint64_t malicious_files = 0;
  double infected_machines_pct = 0;  // machines with >= 1 malicious download
  std::array<double, model::kNumMalwareTypes> type_pct{};  // of malicious
};

// Table X. Only events whose process is labeled benign are counted, as in
// the paper (malware may masquerade as a browser; the whitelist check
// filters it).
std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a);

// Table XI: per-browser behaviour (benign browser processes only).
std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a);

// Table XIV: distinct unknown files downloaded per benign process
// category, and their sum over the categories (a file that two categories
// download counts in both).
struct UnknownDownloads {
  std::array<std::uint64_t, model::kNumProcessCategories> by_category{};
  std::uint64_t total = 0;
};

UnknownDownloads unknown_downloads_by_category(const AnnotatedCorpus& a);

}  // namespace longtail::analysis
