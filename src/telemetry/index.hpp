// Derived indexes over a Corpus. Built once, queried by every analysis
// module: per-file reach (distinct machines, prevalence, via-browser) and
// first-seen time, per-machine event timelines, and per-month slices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/event.hpp"
#include "model/time.hpp"
#include "telemetry/corpus.hpp"
#include "telemetry/file_machines.hpp"

namespace longtail::telemetry {

// Per-file download reach: the distinct machines that downloaded each
// file, kept sorted, and whether any of its downloads came through a
// browser. This is the label-free state behind Fig. 2 (prevalence), the
// via-browser column of Table VI and §IV-A machine coverage. CorpusIndex
// builds one over the whole corpus; the streaming analytics grow one
// window by window. The state depends only on the set of events added,
// never on their order. The machine sets are a `FileMachines` table
// (file_machines.hpp), so a file seen on one machine allocates nothing.
class FileReach {
 public:
  // Sized for `corpus`'s file table; add() reads its process categories,
  // so `corpus` must outlive the reach.
  explicit FileReach(const Corpus& corpus);

  // `e`'s file and process ids must be inside the corpus tables.
  void add(EventStore::EventRef e);
  // Starts loading what add() reads for an event of file `f` and process
  // `p`, both inside the corpus tables.
  void prefetch(model::FileId f, model::ProcessId p) const {
    machines_.prefetch(f);
    __builtin_prefetch(&corpus_->processes[p.raw()]);
  }

  [[nodiscard]] std::size_t num_files() const noexcept {
    return machines_.size();
  }
  // Ascending; the next add() may invalidate the span.
  [[nodiscard]] std::span<const model::MachineId> machines(
      model::FileId f) const {
    return machines_.machines(f);
  }
  // Number of distinct machines; 0 for a file with no events.
  [[nodiscard]] std::uint32_t prevalence(model::FileId f) const {
    return machines_.count(f);
  }
  [[nodiscard]] bool via_browser(model::FileId f) const {
    return via_browser_[f.raw()];
  }

 private:
  const Corpus* corpus_;
  FileMachines machines_;
  std::vector<bool> via_browser_;
};

class CorpusIndex {
 public:
  explicit CorpusIndex(const Corpus& corpus);

  // --- files ---------------------------------------------------------
  [[nodiscard]] const FileReach& reach() const noexcept { return reach_; }
  // Prevalence = number of distinct machines that downloaded the file
  // across all accepted events (capped at sigma upstream).
  [[nodiscard]] std::uint32_t prevalence(model::FileId f) const {
    return reach_.prevalence(f);
  }
  [[nodiscard]] model::Timestamp first_seen(model::FileId f) const {
    return first_seen_[f.raw()];
  }
  // Files with at least one event, ascending.
  [[nodiscard]] const std::vector<model::FileId>& observed_files() const {
    return observed_files_;
  }

  // --- machines ------------------------------------------------------
  // Indexes (into corpus.events) of this machine's events, time-sorted.
  [[nodiscard]] std::span<const std::uint32_t> machine_events(
      model::MachineId m) const {
    const auto b = machine_offsets_[m.raw()];
    const auto e = machine_offsets_[m.raw() + 1];
    return {machine_event_idx_.data() + b, e - b};
  }
  [[nodiscard]] std::uint32_t num_active_machines() const {
    return active_machines_;
  }

  // --- months --------------------------------------------------------
  // Event index range [begin, end) for a calendar month; events are
  // time-sorted in the corpus.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> month_range(
      model::Month m) const {
    const auto i = static_cast<std::size_t>(m);
    return {month_offsets_[i], month_offsets_[i + 1]};
  }

  [[nodiscard]] const Corpus& corpus() const noexcept { return *corpus_; }

 private:
  const Corpus* corpus_;
  FileReach reach_;
  std::vector<model::Timestamp> first_seen_;
  std::vector<model::FileId> observed_files_;
  std::vector<std::size_t> machine_offsets_;
  std::vector<std::uint32_t> machine_event_idx_;
  std::vector<std::uint32_t> month_offsets_;
  std::uint32_t active_machines_ = 0;
};

}  // namespace longtail::telemetry
