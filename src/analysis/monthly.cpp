#include "analysis/monthly.hpp"

#include "telemetry/scan.hpp"

namespace longtail::analysis {

namespace {

using groundtruth::UrlVerdict;
using model::Verdict;

// The calendar months are slots 0-7 of the tally's counts; slot kOverall,
// their union, is the overall row.
constexpr std::size_t kOverall = model::kNumCalendarMonths;
constexpr std::size_t kNumUrlVerdicts =
    static_cast<std::size_t>(UrlVerdict::kUnknown) + 1;

void or_into(std::vector<std::uint8_t>& to,
             const std::vector<std::uint8_t>& from) {
  for (std::size_t i = 0; i < from.size(); ++i) to[i] |= from[i];
}

}  // namespace

MonthlyTally::MonthlyTally(const telemetry::Corpus& corpus)
    : machines(corpus.machine_count, 0),
      processes(corpus.processes.size(), 0),
      files(corpus.files.size(), 0),
      urls(corpus.urls.size(), 0) {}

void MonthlyTally::add(telemetry::EventStore::EventRef e) {
  const auto m = static_cast<std::size_t>(model::month_of(e.time()));
  const auto bit = static_cast<std::uint8_t>(1u << m);
  machines[e.machine().raw()] |= bit;
  processes[e.process().raw()] |= bit;
  files[e.file().raw()] |= bit;
  urls[e.url().raw()] |= bit;
  ++events[m];
}

void MonthlyTally::merge(const MonthlyTally& other) {
  or_into(machines, other.machines);
  or_into(processes, other.processes);
  or_into(files, other.files);
  or_into(urls, other.urls);
  for (std::size_t m = 0; m < events.size(); ++m) events[m] += other.events[m];
}

MonthlySummary summarize_tally(const AnnotatedCorpus& a,
                               const MonthlyTally& t) {
  const auto verdict_of = [](const auto& verdicts) {
    return [&verdicts](std::size_t i) { return verdicts[i]; };
  };
  const auto machines = count_slots<kOverall>(t.machines);
  const auto procs = count_slots<kOverall, model::kNumVerdicts>(
      t.processes, verdict_of(a.labels.process_verdicts));
  const auto files = count_slots<kOverall, model::kNumVerdicts>(
      t.files, verdict_of(a.labels.file_verdicts));
  const auto urls = count_slots<kOverall, kNumUrlVerdicts>(
      t.urls, verdict_of(a.url_verdicts));

  auto row = [&](std::size_t slot, std::uint64_t events) {
    MonthlyRow r;
    r.machines = machines.total[slot];
    r.events = events;

    r.processes = procs.total[slot];
    r.proc_benign = procs.pct(slot, Verdict::kBenign);
    r.proc_likely_benign = procs.pct(slot, Verdict::kLikelyBenign);
    r.proc_malicious = procs.pct(slot, Verdict::kMalicious);
    r.proc_likely_malicious = procs.pct(slot, Verdict::kLikelyMalicious);

    r.files = files.total[slot];
    r.file_benign = files.pct(slot, Verdict::kBenign);
    r.file_likely_benign = files.pct(slot, Verdict::kLikelyBenign);
    r.file_malicious = files.pct(slot, Verdict::kMalicious);
    r.file_likely_malicious = files.pct(slot, Verdict::kLikelyMalicious);

    r.urls = urls.total[slot];
    r.url_benign = urls.pct(slot, UrlVerdict::kBenign);
    r.url_malicious = urls.pct(slot, UrlVerdict::kMalicious);
    return r;
  };

  MonthlySummary out;
  std::uint64_t events = 0;
  for (std::size_t m = 0; m < model::kNumCalendarMonths; ++m) {
    if (m < model::kNumCollectionMonths) out.months[m] = row(m, t.events[m]);
    events += t.events[m];
  }
  out.overall = row(kOverall, events);
  return out;
}

MonthlySummary monthly_summary(const AnnotatedCorpus& a) {
  const telemetry::Corpus& corpus = *a.corpus;
  const MonthlyTally tally = telemetry::scan_reduce(
      corpus, [&] { return MonthlyTally(corpus); },
      [](MonthlyTally& t, const auto& e) { t.add(e); },
      [](MonthlyTally& total, MonthlyTally&& shard) { total.merge(shard); },
      "analysis.monthly");
  return summarize_tally(a, tally);
}

}  // namespace longtail::analysis
