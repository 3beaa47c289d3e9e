// Incremental analytics over the streaming ingest path.
//
// `StreamingAnalytics` absorbs the closed `EventWindow`s emitted by
// `telemetry::StreamingCollectionServer` and can produce, at any window
// boundary, the same reports the batch analyses compute with a
// full-corpus repass: the Table I monthly summary, the Fig. 2 prevalence
// distributions, the Table VI signing rates, and machine coverage. It
// folds the same label-free accumulators as the batch functions — a
// `MonthlyTally` (analysis/monthly.hpp) and a `telemetry::FileReach`
// (telemetry/index.hpp) — and each snapshot runs the same finisher as the
// batch call, so a snapshot is bit-identical to the batch analysis of the
// events absorbed so far. `absorb` folds each event of a window into both
// in one loop, prefetching the file's reach record and the process row a
// few events ahead (util/prefetch.hpp). Both accumulators depend only on
// the set of events added, so window width and ingest chunking cannot
// affect the result.
//
// Per-file state is sized by the data: a file's reach keeps its first
// machine inline and allocates only at its second distinct machine
// (telemetry/file_machines.hpp). Accepted events carry only machines
// admitted below the collection cap sigma, so a file's set never exceeds
// sigma entries.
#pragma once

#include <cstdint>

#include "analysis/annotated.hpp"
#include "analysis/coverage.hpp"
#include "analysis/monthly.hpp"
#include "analysis/prevalence.hpp"
#include "analysis/signers.hpp"
#include "telemetry/index.hpp"
#include "telemetry/streaming.hpp"

namespace longtail::analysis {

class StreamingAnalytics {
 public:
  // `corpus` provides the entity tables (sizes, process categories); its
  // event table is NOT read — events arrive through absorb().
  explicit StreamingAnalytics(const telemetry::Corpus& corpus);

  // Folds one closed window of accepted events into the running state.
  // Throws std::out_of_range, before folding any event of the window, when
  // an event's machine, process, file or url id is outside the corpus
  // tables (ingest quarantines only bad url and file ids).
  void absorb(const telemetry::EventWindow& w);

  // Snapshots at the current window boundary. `a` supplies labels and
  // metadata; its index is not consulted for anything event-derived.
  [[nodiscard]] MonthlySummary monthly(const AnnotatedCorpus& a) const;
  [[nodiscard]] PrevalenceDistributions prevalence(const AnnotatedCorpus& a,
                                                   std::uint32_t sigma =
                                                       20) const;
  [[nodiscard]] SigningRates signing(const AnnotatedCorpus& a) const;
  [[nodiscard]] MachineCoverage coverage(const AnnotatedCorpus& a) const;

  [[nodiscard]] std::uint64_t events_absorbed() const noexcept;
  [[nodiscard]] std::size_t windows_absorbed() const noexcept {
    return windows_;
  }

 private:
  const telemetry::Corpus* corpus_;
  MonthlyTally monthly_;
  telemetry::FileReach reach_;
  std::size_t windows_ = 0;
};

}  // namespace longtail::analysis
