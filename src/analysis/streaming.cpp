#include "analysis/streaming.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::analysis {

StreamingAnalytics::StreamingAnalytics(const telemetry::Corpus& corpus)
    : monthly_(corpus), reach_(corpus) {}

void StreamingAnalytics::absorb(const telemetry::EventWindow& w) {
  LONGTAIL_TRACE_SPAN("corpus.absorb");
  LONGTAIL_METRIC_COUNT("corpus.scan.windows_absorbed", 1);
  LONGTAIL_METRIC_COUNT("corpus.scan.events_scanned", w.events.size());
  for (const auto e : w.events) {
    monthly_.add(e);
    reach_.add(e);
  }
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
