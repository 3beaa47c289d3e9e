#include "analysis/streaming.hpp"

#include <string_view>

#include "util/metrics.hpp"
#include "util/prefetch.hpp"
#include "util/trace.hpp"

namespace longtail::analysis {

StreamingAnalytics::StreamingAnalytics(const telemetry::Corpus& corpus)
    : corpus_(&corpus), monthly_(corpus), reach_(corpus) {}

void StreamingAnalytics::absorb(const telemetry::EventWindow& w) {
  LONGTAIL_TRACE_SPAN("corpus.absorb");
  const auto& events = w.events;
  const auto files = events.file_column();
  const auto processes = events.process_column();
  constexpr std::string_view kWho = "StreamingAnalytics";
  telemetry::require_ids_below(events.machine_column(), corpus_->machine_count,
                               kWho, "machine");
  telemetry::require_ids_below(processes, corpus_->processes.size(), kWho,
                               "process");
  telemetry::require_ids_below(files, corpus_->files.size(), kWho, "file");
  telemetry::require_ids_below(events.url_column(), corpus_->urls.size(), kWho,
                               "url");
  LONGTAIL_METRIC_COUNT("corpus.scan.windows_absorbed", 1);
  LONGTAIL_METRIC_COUNT("corpus.scan.events_scanned", events.size());
  util::for_each_ahead(
      events.size(),
      [&](std::size_t i) { reach_.prefetch(files[i], processes[i]); },
      [&](std::size_t i) {
        monthly_.add(events[i]);
        reach_.add(events[i]);
      });
  ++windows_;
}

std::uint64_t StreamingAnalytics::events_absorbed() const noexcept {
  std::uint64_t total = 0;
  for (const auto n : monthly_.events) total += n;
  return total;
}

MonthlySummary StreamingAnalytics::monthly(const AnnotatedCorpus& a) const {
  return summarize_tally(a, monthly_);
}

PrevalenceDistributions StreamingAnalytics::prevalence(
    const AnnotatedCorpus& a, std::uint32_t sigma) const {
  return prevalence_distributions(a, reach_, sigma);
}

SigningRates StreamingAnalytics::signing(const AnnotatedCorpus& a) const {
  return signing_rates(a, reach_);
}

MachineCoverage StreamingAnalytics::coverage(const AnnotatedCorpus& a) const {
  return machine_coverage(a, reach_);
}

}  // namespace longtail::analysis
