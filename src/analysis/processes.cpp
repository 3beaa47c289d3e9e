#include "analysis/processes.hpp"

#include "analysis/procname.hpp"

#include <unordered_set>

#include "telemetry/scan.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

namespace {

using model::ProcessCategory;
using model::Verdict;

template <std::size_t N>
void merge_rows(const AnnotatedCorpus& a, std::array<RowAccumulator, N>& total,
                std::array<RowAccumulator, N>&& shard) {
  for (std::size_t i = 0; i < N; ++i)
    total[i].merge(a, std::move(shard[i]));
}

}  // namespace

void RowAccumulator::add(const AnnotatedCorpus& a,
                         const telemetry::EventStore::EventRef& e) {
  processes.insert(e.process().raw());
  machines.insert(e.machine().raw());
  switch (a.verdict(e.file())) {
    case Verdict::kUnknown:
      unknown_files.insert(e.file().raw());
      break;
    case Verdict::kBenign:
      benign_files.insert(e.file().raw());
      break;
    case Verdict::kMalicious:
      malicious_files.insert(e.file().raw());
      infected.insert(e.machine().raw());
      if (counted_malicious.insert(e.file().raw()).second)
        ++type_file_counts[static_cast<std::size_t>(a.type_of(e.file()))];
      break;
    default:
      break;
  }
}

void RowAccumulator::merge(const AnnotatedCorpus& a, RowAccumulator&& o) {
  processes.merge(o.processes);
  machines.merge(o.machines);
  infected.merge(o.infected);
  unknown_files.merge(o.unknown_files);
  benign_files.merge(o.benign_files);
  malicious_files.merge(o.malicious_files);
  for (const auto f : o.counted_malicious)
    if (counted_malicious.insert(f).second)
      ++type_file_counts[static_cast<std::size_t>(
          a.type_of(model::FileId{f}))];
}

ProcessBehaviorRow RowAccumulator::finish() const {
  ProcessBehaviorRow row;
  row.processes = processes.size();
  row.machines = machines.size();
  row.unknown_files = unknown_files.size();
  row.benign_files = benign_files.size();
  row.malicious_files = malicious_files.size();
  row.infected_machines_pct = util::percent(infected.size(), machines.size());
  std::uint64_t mal_total = 0;
  for (const auto c : type_file_counts) mal_total += c;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    row.type_pct[t] = util::percent(type_file_counts[t], mal_total);
  return row;
}

std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a) {
  using Acc = std::array<RowAccumulator, model::kNumProcessCategories>;
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        // Category from the on-disk executable name; restricted to
        // processes whose hash is known benign, exactly as §V-A does (a
        // masquerading chrome.exe fails the whitelist and never reaches
        // these rows).
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        const auto cat = static_cast<std::size_t>(
            categorize_by_name(a.corpus->process_name(e.process())).category);
        s[cat].add(a, e);
      },
      [&](Acc& total, Acc&& shard) {
        merge_rows(a, total, std::move(shard));
      },
      "analysis.benign_process_behavior");
  std::array<ProcessBehaviorRow, model::kNumProcessCategories> out;
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = acc[c].finish();
  return out;
}

std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a) {
  using Acc = std::array<RowAccumulator, model::kNumBrowserKinds>;
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        const auto named =
            categorize_by_name(a.corpus->process_name(e.process()));
        if (named.category != ProcessCategory::kBrowser) return;
        s[static_cast<std::size_t>(named.browser)].add(a, e);
      },
      [&](Acc& total, Acc&& shard) {
        merge_rows(a, total, std::move(shard));
      },
      "analysis.browser_behavior");
  std::array<ProcessBehaviorRow, model::kNumBrowserKinds> out;
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = acc[b].finish();
  return out;
}

UnknownDownloads unknown_downloads_by_category(const AnnotatedCorpus& a) {
  using FileSets =
      std::array<std::unordered_set<std::uint32_t>,
                 model::kNumProcessCategories>;
  const FileSets files = telemetry::scan_reduce(
      *a.corpus, [] { return FileSets{}; },
      [&](FileSets& s, const auto& e) {
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        if (a.verdict(e.file()) != Verdict::kUnknown) return;
        const auto cat = static_cast<std::size_t>(
            categorize_by_name(a.corpus->process_name(e.process())).category);
        s[cat].insert(e.file().raw());
      },
      [](FileSets& total, FileSets&& shard) {
        for (std::size_t c = 0; c < shard.size(); ++c)
          total[c].merge(shard[c]);
      },
      "analysis.unknown_downloads");
  UnknownDownloads out;
  for (std::size_t c = 0; c < files.size(); ++c) {
    out.by_category[c] = files[c].size();
    out.total += files[c].size();
  }
  return out;
}

}  // namespace longtail::analysis
