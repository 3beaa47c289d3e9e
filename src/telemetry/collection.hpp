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
// per-rule drop counters (`CollectionStats`) and the bounded prevalence
// state (`PrevalenceTracker`). The server that applies them is
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
#include <cstdint>
#include <vector>

#include "model/ids.hpp"
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

// Bounded per-file prevalence state. The §II-A rule only ever needs the
// identities of machines admitted *below* sigma — membership decides
// whether a repeat download from an admitted machine is still reportable —
// so the stored set is structurally capped at sigma entries and kept as a
// sorted inline vector (a handful of contiguous u32s) instead of a
// node-based hash set per file. Under long-lived streaming ingest the
// per-file footprint is therefore a small constant, and saturated files
// answer the common "new machine past the cap" probe with one flag load.
class PrevalenceTracker {
 public:
  explicit PrevalenceTracker(std::uint32_t sigma = 20) noexcept
      : sigma_(sigma) {}

  // Applies the prevalence rule for one executed event: returns true when
  // the event is reportable (machine already admitted, or cap not yet
  // reached — the machine is then admitted).
  bool admit(model::FileId f, model::MachineId m) {
    FileState& e = files_[f.raw()];
    const std::uint32_t machine = m.raw();
    const auto it =
        std::lower_bound(e.machines.begin(), e.machines.end(), machine);
    if (it != e.machines.end() && *it == machine) return true;  // repeat
    if (e.saturated) return false;  // new machine past the cap
    e.machines.insert(it, machine);
    if (e.machines.size() >= sigma_) e.saturated = true;
    return true;
  }

  // Distinct machines admitted for `f`; capped at sigma by construction.
  [[nodiscard]] std::uint32_t prevalence(model::FileId f) const {
    const FileState* e = files_.find(f.raw());
    return e == nullptr ? 0 : static_cast<std::uint32_t>(e->machines.size());
  }

  [[nodiscard]] bool saturated(model::FileId f) const {
    const FileState* e = files_.find(f.raw());
    return e != nullptr && e->saturated;
  }

  // Files whose admitted-machine set hit the cap (new machines on them
  // are being dropped). A polymorphic-churn adversary keeps every variant
  // under sigma, so this count *falls* while raw download volume is
  // unchanged — the observable signature of the §VII prevalence-filter
  // evasion the scenario sweep measures.
  [[nodiscard]] std::uint64_t saturated_files() const {
    std::uint64_t n = 0;
    for (const auto& [f, e] : files_)
      if (e.saturated) ++n;
    return n;
  }

  // Files with at least one admitted machine.
  [[nodiscard]] std::uint64_t tracked_files() const { return files_.size(); }

  [[nodiscard]] std::uint32_t sigma() const noexcept { return sigma_; }

 private:
  struct FileState {
    std::vector<std::uint32_t> machines;  // sorted; <= sigma entries
    bool saturated = false;
  };
  std::uint32_t sigma_;
  // One admit() probe per executed event — the hottest single lookup in
  // the §II-A path. Insertion-order iteration keeps saturated_files()
  // deterministic.
  util::FlatMap<std::uint32_t, FileState> files_;
};

}  // namespace longtail::telemetry
