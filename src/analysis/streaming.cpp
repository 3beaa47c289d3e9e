#include "analysis/streaming.hpp"

namespace longtail::analysis {

namespace {

template <typename Acc>
void add_event(Acc& acc, telemetry::EventStore::EventRef e) {
  acc.add(e);
}

}  // namespace

StreamingAnalytics::StreamingAnalytics(const telemetry::Corpus& corpus)
    : monthly_(MonthlyTally(corpus), &add_event<MonthlyTally>,
               "analysis.stream_monthly"),
      reach_(telemetry::FileReach(corpus), &add_event<telemetry::FileReach>,
             "analysis.stream_files") {}

void StreamingAnalytics::absorb(const telemetry::EventWindow& w) {
  monthly_.absorb(w.events);
  reach_.absorb(w.events);
  ++windows_;
}

std::uint64_t StreamingAnalytics::events_absorbed() const noexcept {
  std::uint64_t total = 0;
  for (const auto n : monthly_.state().events) total += n;
  return total;
}

MonthlySummary StreamingAnalytics::monthly(const AnnotatedCorpus& a) const {
  return summarize_tally(a, monthly_.state());
}

PrevalenceDistributions StreamingAnalytics::prevalence(
    const AnnotatedCorpus& a, std::uint32_t sigma) const {
  return prevalence_distributions(a, reach_.state(), sigma);
}

SigningRates StreamingAnalytics::signing(const AnnotatedCorpus& a) const {
  return signing_rates(a, reach_.state());
}

MachineCoverage StreamingAnalytics::coverage(const AnnotatedCorpus& a) const {
  return machine_coverage(a, reach_.state());
}

}  // namespace longtail::analysis
