#include "telemetry/index.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace longtail::telemetry {

FileReach::FileReach(const Corpus& corpus)
    : corpus_(&corpus),
      machines_(corpus.files.size()),
      via_browser_(corpus.files.size(), false) {}

void FileReach::add(EventStore::EventRef e) {
  const model::FileId f = e.file();
  machines_.insert(f, e.machine(), std::numeric_limits<std::uint32_t>::max());
  if (corpus_->processes[e.process().raw()].category ==
      model::ProcessCategory::kBrowser)
    via_browser_[f.raw()] = true;
}

CorpusIndex::CorpusIndex(const Corpus& corpus)
    : corpus_(&corpus), reach_(corpus) {
  // The index walks the raw columns directly: one pass touches only the
  // columns it needs (times for month offsets, machines for the counting
  // sort), which is the point of the SoA layout.
  const auto files = corpus.events.file_column();
  const auto machines = corpus.events.machine_column();
  const auto times = corpus.events.time_column();
  const std::size_t n = times.size();
  assert(std::is_sorted(times.begin(), times.end()));

  const std::size_t nf = corpus.files.size();
  first_seen_.assign(nf, std::numeric_limits<model::Timestamp>::max());

  std::vector<std::uint32_t> machine_counts(corpus.machine_count + 1, 0);

  for (std::size_t i = 0; i < n; ++i) {
    reach_.add(corpus.events[i]);
    const auto f = files[i].raw();
    first_seen_[f] = std::min(first_seen_[f], times[i]);
    ++machine_counts[machines[i].raw()];
  }

  for (std::uint32_t f = 0; f < nf; ++f)
    if (reach_.prevalence(model::FileId{f}) > 0)
      observed_files_.push_back(model::FileId{f});

  // Per-machine event lists via counting sort: offsets then fill.
  machine_offsets_.assign(corpus.machine_count + 1, 0);
  for (std::uint32_t m = 0; m < corpus.machine_count; ++m)
    machine_offsets_[m + 1] = machine_offsets_[m] + machine_counts[m];
  machine_event_idx_.resize(n);
  {
    std::vector<std::size_t> cursor(machine_offsets_.begin(),
                                    machine_offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto m = machines[i].raw();
      machine_event_idx_[cursor[m]++] = static_cast<std::uint32_t>(i);
    }
  }
  active_machines_ = 0;
  for (std::uint32_t m = 0; m < corpus.machine_count; ++m)
    if (machine_counts[m] > 0) ++active_machines_;

  // Month offsets over the time-sorted event stream.
  month_offsets_.assign(model::kNumCalendarMonths + 1, 0);
  for (std::size_t m = 0; m <= model::kNumCalendarMonths; ++m) {
    const model::Timestamp boundary = model::kMonthStart[m];
    const auto it = std::lower_bound(times.begin(), times.end(), boundary);
    month_offsets_[m] = static_cast<std::uint32_t>(it - times.begin());
  }
}

}  // namespace longtail::telemetry
