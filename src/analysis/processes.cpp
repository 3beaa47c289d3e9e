#include "analysis/processes.hpp"

#include <optional>
#include <span>
#include <vector>

#include "analysis/malproc.hpp"
#include "analysis/monthly.hpp"
#include "analysis/procname.hpp"
#include "telemetry/scan.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

namespace {

using model::ProcessCategory;
using model::Verdict;

// Bit r of a process's word puts its downloads in row r; 0 means no row.
using RowBits = std::uint16_t;
using MaybeRow = std::optional<std::size_t>;

// A file's class in the row counts: its verdict, or kNumVerdicts plus its
// type when it is malicious, so one count yields every file column.
constexpr std::size_t kFileClasses =
    model::kNumVerdicts + model::kNumMalwareTypes;

template <std::size_t N>
struct Rows {
  std::array<ProcessBehaviorRow, N> rows;
  ProcessBehaviorRow all;  // the union of the rows
};

// The row bit of every process; row_of runs once per process.
template <typename RowOf>
std::vector<RowBits> row_bits(const AnnotatedCorpus& a, RowOf row_of) {
  std::vector<RowBits> bits(a.corpus->processes.size(), 0);
  for (std::uint32_t p = 0; p < bits.size(); ++p)
    if (const MaybeRow r = row_of(model::ProcessId{p}))
      bits[p] = static_cast<RowBits>(1u << *r);
  return bits;
}

// Benign processes by the category of their executable name. §V-A
// restricts the rows to processes whose hash is known benign, so a
// masquerading chrome.exe fails the whitelist and never reaches them.
std::vector<RowBits> category_rows(const AnnotatedCorpus& a) {
  return row_bits(a, [&](model::ProcessId p) -> MaybeRow {
    if (a.verdict(p) != Verdict::kBenign) return std::nullopt;
    return static_cast<std::size_t>(
        categorize_by_name(a.corpus->process_name(p)).category);
  });
}

// The rows of one table, and their union, from every process's row bit.
template <std::size_t N>
Rows<N> count_rows(const AnnotatedCorpus& a, const std::vector<RowBits>& bits,
                   const char* label) {
  const telemetry::Corpus& corpus = *a.corpus;
  using Events = std::vector<std::uint32_t>;
  const Events events = telemetry::scan_reduce(
      corpus, [] { return Events{}; },
      [&](Events& s, const auto& e) {
        if (bits[e.process().raw()] != 0)
          s.push_back(static_cast<std::uint32_t>(e.index()));
      },
      [](Events& total, Events&& shard) {
        total.insert(total.end(), shard.begin(), shard.end());
      },
      label);

  std::vector<RowBits> procs(bits.size(), 0), files(corpus.files.size(), 0);
  std::vector<RowBits> machines(corpus.machine_count, 0),
      infected(corpus.machine_count, 0);
  for (const auto i : events) {
    const auto e = corpus.events[i];
    const RowBits bit = bits[e.process().raw()];
    procs[e.process().raw()] |= bit;
    machines[e.machine().raw()] |= bit;
    files[e.file().raw()] |= bit;
    if (a.is_malicious(e.file())) infected[e.machine().raw()] |= bit;
  }

  const auto n_procs = count_slots<N>(procs);
  const auto n_machines = count_slots<N>(machines);
  const auto n_infected = count_slots<N>(infected);
  const auto file_class = [&](std::size_t i) {
    const model::FileId f{static_cast<std::uint32_t>(i)};
    if (!a.is_malicious(f)) return static_cast<std::size_t>(a.verdict(f));
    return model::kNumVerdicts + static_cast<std::size_t>(a.type_of(f));
  };
  const auto n_files = count_slots<N, kFileClasses>(files, file_class);

  auto row = [&](std::size_t r) {
    const auto& by_class = n_files.by_class[r];
    const auto types = std::span(by_class).subspan(model::kNumVerdicts);
    ProcessBehaviorRow out;
    out.processes = n_procs.total[r];
    out.machines = n_machines.total[r];
    out.unknown_files = by_class[static_cast<std::size_t>(Verdict::kUnknown)];
    out.benign_files = by_class[static_cast<std::size_t>(Verdict::kBenign)];
    for (const auto n : types) out.malicious_files += n;
    out.infected_machines_pct =
        util::percent(n_infected.total[r], out.machines);
    for (std::size_t t = 0; t < types.size(); ++t)
      out.type_pct[t] = util::percent(types[t], out.malicious_files);
    return out;
  };
  Rows<N> out;
  for (std::size_t r = 0; r < N; ++r) out.rows[r] = row(r);
  out.all = row(N);
  return out;
}

}  // namespace

std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a) {
  const auto counted = count_rows<model::kNumProcessCategories>(
      a, category_rows(a), "analysis.benign_process_behavior");
  return counted.rows;
}

std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a) {
  const auto browser = [&](model::ProcessId p) -> MaybeRow {
    if (a.verdict(p) != Verdict::kBenign) return std::nullopt;
    const auto named = categorize_by_name(a.corpus->process_name(p));
    if (named.category != ProcessCategory::kBrowser) return std::nullopt;
    return static_cast<std::size_t>(named.browser);
  };
  const auto counted = count_rows<model::kNumBrowserKinds>(
      a, row_bits(a, browser), "analysis.browser_behavior");
  return counted.rows;
}

MalProcBehavior malicious_process_behavior(const AnnotatedCorpus& a) {
  const auto type = [&](model::ProcessId p) -> MaybeRow {
    if (a.verdict(p) != Verdict::kMalicious) return std::nullopt;
    return static_cast<std::size_t>(a.type_of(p));
  };
  const auto counted = count_rows<model::kNumMalwareTypes>(
      a, row_bits(a, type), "analysis.malicious_process_behavior");
  return {counted.rows, counted.all};
}

UnknownDownloads unknown_downloads_by_category(const AnnotatedCorpus& a) {
  const auto counted = count_rows<model::kNumProcessCategories>(
      a, category_rows(a), "analysis.unknown_downloads");
  UnknownDownloads out;
  for (std::size_t c = 0; c < counted.rows.size(); ++c) {
    out.by_category[c] = counted.rows[c].unknown_files;
    out.total += counted.rows[c].unknown_files;
  }
  return out;
}

}  // namespace longtail::analysis
