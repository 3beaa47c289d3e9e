// Deterministic fault-injection transport between the software agents and
// the collection server.
//
// The fault-free pipeline hands the raw agent event stream to the
// trusted path of `StreamingCollectionServer` with `collect_in_order`
// (streaming.hpp), as if every report arrived exactly once, in perfect
// time order, uncorrupted.
// `FaultyTransport` replays the same stream through a simulated lossy
// channel instead (§II-A's SA→CS hop):
//
//   * each report carries a unique `report_id` (its index in the raw
//     stream — the agent's sequence number);
//   * a report is *dropped* with `drop_rate` (agent offline);
//   * a delivered report is acked by the server; with `ack_loss_rate` the
//     ack is lost and the agent retransmits after a capped exponential
//     backoff — the server receives duplicate copies (same report_id);
//   * every machine's agent clock is offset by a bounded per-machine
//     skew, shifting the *reported* timestamps of all its events;
//   * each copy's arrival is delayed by bounded network jitter, so
//     arrival order differs from occurrence order (bounded, hence
//     repairable by the server's reorder buffer);
//   * with `corrupt_rate` a copy's payload arrives malformed (detectably
//     out-of-range field) and must be quarantined downstream.
//
// Every fault is drawn from a per-report RNG substream derived from
// (seed, report_id) alone, so the delivered stream is bit-identical for
// every LONGTAIL_THREADS value and every rerun of the same seed. With the
// zero profile, `deliver` returns the input stream unchanged (same order,
// no copies, no skew) — the fault-free path is an exact no-op.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/event.hpp"
#include "telemetry/faults.hpp"

namespace longtail::telemetry {

// One copy of a report as the collection server receives it.
struct DeliveredReport {
  model::DownloadEvent event;      // payload (possibly corrupted)
  std::uint64_t report_id = 0;     // agent sequence number; duplicate
                                   // copies share it — the dedup key
  model::Timestamp arrival = 0;    // server receive time (delivery order)
  std::uint8_t copy = 0;           // 0 = original, k = k-th retransmit
  bool corrupted = false;          // ground truth for tests/benches only;
                                   // the server must *detect* malformation
                                   // from the payload, never read this
};

struct TransportStats {
  std::uint64_t reports_offered = 0;    // raw agent events
  std::uint64_t dropped_offline = 0;    // never delivered
  std::uint64_t delivered = 0;          // copies handed to the server
  std::uint64_t duplicates = 0;         // retransmitted extra copies
  std::uint64_t corrupted = 0;          // copies delivered malformed

  [[nodiscard]] std::uint64_t unique_delivered() const noexcept {
    return delivered - duplicates;
  }
};

class FaultyTransport {
 public:
  FaultyTransport(FaultProfile profile, std::uint64_t seed) noexcept
      : profile_(profile), seed_(seed) {}

  // Replays `raw` (the agent stream, any order) through the faulty
  // channel and returns the copies the server receives, sorted by
  // (arrival, report_id, copy) — a total order, so the result is unique.
  // Fault draws use per-report substreams; the per-copy work is spread
  // over the thread pool without affecting the result.
  [[nodiscard]] std::vector<DeliveredReport> deliver(
      std::span<const model::DownloadEvent> raw);

  [[nodiscard]] const TransportStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return profile_;
  }

 private:
  FaultProfile profile_;
  std::uint64_t seed_ = 0;
  TransportStats stats_;
};

}  // namespace longtail::telemetry
