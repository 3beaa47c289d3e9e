// The collection-server reporting rules of §II-A.
//
// Each monitored machine runs a software agent (SA) that observes every
// web-based download; the agent reports an event to the collection server
// (CS) only if:
//   1. the downloaded file was *executed* on the machine;
//   2. the file's current prevalence (distinct machines seen so far, by
//      hash) is below the threshold sigma (20 during the study);
//   3. the download URL's domain is not on the collection whitelist
//      (e.g. major-vendor software-update domains).
//
// This header holds the rule configuration (`CollectionPolicy`), the
// per-rule drop counters (`CollectionStats`) and the prevalence state
// (`PrevalenceTracker`: per file id, the machines admitted below sigma,
// kept in a dense `FileMachines` table sized by the server's file table).
// The server that applies them is
// `telemetry::StreamingCollectionServer` (streaming.hpp): its trusted path
// replays an exactly-once, time-ordered agent stream through the rules;
// its untrusted path first hardens a stream that crossed a faulty channel
// (telemetry/transport.hpp):
//   * drops retransmitted duplicate copies (same report_id — the server
//     acks every receipt, so a copy whose predecessor was already received
//     is discarded even if the predecessor was quarantined);
//   * quarantines malformed payloads (out-of-range url/file id, timestamp
//     outside the collection window) instead of counting them;
//   * re-establishes occurrence-time order with a bounded reorder buffer:
//     events are held until the arrival watermark passes
//     `reorder_horizon_s`, then released in (time, report_id) order.
//     Events arriving later than the horizon allows are dropped as stale
//     rather than emitted out of order.
// Every delivered copy increments exactly one stats counter, so
// `accepted + all drop/quarantine counters == total_seen()` holds on both
// paths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "model/ids.hpp"
#include "telemetry/file_machines.hpp"
#include "util/flat_table.hpp"

namespace longtail::telemetry {

struct CollectionPolicy {
  // Prevalence reporting cap; the paper's sigma.
  std::uint32_t sigma = 20;
  // Domains whose downloads are never reported (software-update CDNs of
  // major vendors, per §II-A). Probed once per executed event — a
  // FlatSet so the hot path pays one cache line per miss.
  util::FlatSet<model::DomainId> whitelisted_domains;
  // Reorder-buffer horizon of the untrusted path, in seconds: an event is
  // released once the arrival watermark is this far past its reported
  // time. Set from FaultProfile::reorder_horizon_s(); 0 releases
  // immediately (correct when the channel preserves order).
  double reorder_horizon_s = 0.0;
};

struct CollectionStats {
  std::uint64_t accepted = 0;
  std::uint64_t dropped_not_executed = 0;
  std::uint64_t dropped_prevalence_cap = 0;
  std::uint64_t dropped_whitelisted_url = 0;
  // Untrusted path only: retransmitted copies of a report already
  // received, malformed payloads routed to quarantine, and events that
  // arrived too late for the reorder buffer to restore their order.
  std::uint64_t dropped_duplicate = 0;
  std::uint64_t quarantined_malformed = 0;
  std::uint64_t dropped_stale = 0;

  [[nodiscard]] std::uint64_t total_seen() const noexcept {
    return accepted + dropped_not_executed + dropped_prevalence_cap +
           dropped_whitelisted_url + dropped_duplicate +
           quarantined_malformed + dropped_stale;
  }
};

// The §II-A prevalence state: per file, the machines admitted below sigma.
// Membership decides whether a repeat download from an admitted machine
// is still reportable, so the set never grows past sigma. It is a
// `FileMachines` table indexed by file id: a file seen on one machine (the
// long tail's common case) keeps that machine inline and allocates
// nothing. A file's first machine is always admitted, so sigma = 0 caps a
// file like sigma = 1.
class PrevalenceTracker {
 public:
  // `num_files` sizes the table; a larger file id grows it.
  explicit PrevalenceTracker(std::uint32_t sigma = 20,
                             std::size_t num_files = 0)
      : sigma_(sigma), machines_(num_files) {}

  // Applies the prevalence rule for one executed event: returns true when
  // the event is reportable (machine already admitted, or cap not yet
  // reached — the machine is then admitted).
  bool admit(model::FileId f, model::MachineId m) {
    return machines_.insert(f, m, cap());
  }

  // Distinct machines admitted for `f`; capped at sigma by construction.
  [[nodiscard]] std::uint32_t prevalence(model::FileId f) const {
    return machines_.count(f);
  }

  [[nodiscard]] bool saturated(model::FileId f) const {
    return machines_.count(f) >= cap();
  }

  // Files whose admitted-machine set hit the cap (new machines on them
  // are being dropped). A polymorphic-churn adversary keeps every variant
  // under sigma, so this count *falls* while raw download volume is
  // unchanged — the observable signature of the §VII prevalence-filter
  // evasion the scenario sweep measures.
  [[nodiscard]] std::uint64_t saturated_files() const {
    return count_files(cap());
  }

  // Files with at least one admitted machine.
  [[nodiscard]] std::uint64_t tracked_files() const { return count_files(1); }

  [[nodiscard]] std::uint32_t sigma() const noexcept { return sigma_; }

 private:
  [[nodiscard]] std::uint32_t cap() const noexcept {
    return std::max<std::uint32_t>(sigma_, 1);
  }
  // Files with at least `n` admitted machines; one pass over the table.
  [[nodiscard]] std::uint64_t count_files(std::uint32_t n) const {
    std::uint64_t files = 0;
    for (std::size_t f = 0; f < machines_.size(); ++f)
      if (machines_.count(model::FileId{static_cast<std::uint32_t>(f)}) >= n)
        ++files;
    return files;
  }

  std::uint32_t sigma_;
  FileMachines machines_;
};

}  // namespace longtail::telemetry
