// Downloading-process analysis (§V-A, §VI-A):
//   * Table X   — download behaviour of *known benign* processes, grouped
//                 into browsers / Windows / Java / Acrobat Reader / other;
//   * Table XI  — download behaviour per browser;
//   * Table XIV — process categories downloading unknown files.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>

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

// The accumulator behind one row of Tables X, XI and XII: folds the
// download events of the row's processes, merges scan shards, and
// finishes into a ProcessBehaviorRow.
struct RowAccumulator {
  std::unordered_set<std::uint32_t> processes, machines, infected;
  std::unordered_set<std::uint32_t> unknown_files, benign_files,
      malicious_files;
  std::array<std::uint64_t, model::kNumMalwareTypes> type_file_counts{};
  std::unordered_set<std::uint32_t> counted_malicious;

  void add(const AnnotatedCorpus& a, const telemetry::EventStore::EventRef& e);
  // Absorb another shard's accumulator. The per-type file counts are
  // replayed through `counted_malicious` insertions so each malicious file
  // is counted exactly once globally, matching the serial pass.
  void merge(const AnnotatedCorpus& a, RowAccumulator&& o);
  [[nodiscard]] ProcessBehaviorRow finish() const;
};

// Table X. Only events whose process is labeled benign are counted, as in
// the paper (malware may masquerade as a browser; the whitelist check
// filters it).
std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a);

// Table XI: per-browser behaviour (benign browser processes only).
std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a);

// Table XIV: number of unknown-file downloads per benign process
// category, plus the total.
struct UnknownDownloads {
  std::array<std::uint64_t, model::kNumProcessCategories> by_category{};
  std::uint64_t total = 0;
};

UnknownDownloads unknown_downloads_by_category(const AnnotatedCorpus& a);

}  // namespace longtail::analysis
