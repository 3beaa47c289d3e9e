// Chunked feed from the generator's raw agent stream into the streaming
// collection server.
//
// `ChunkedFeed` drives `telemetry::StreamingCollectionServer` chunk by
// chunk, so ingest never waits for the whole delivered stream:
//
//   * fault-free: delivered reports are synthesized on the fly per chunk
//     (report_id = stream index, arrival = reported time) into a reused
//     buffer — the delivered stream is never materialized, and the
//     channel qualifies as `StreamingConfig::trusted`;
//   * faulted: `FaultyTransport::deliver` must globally sort copies by
//     arrival (bounded jitter reorders across any chunk boundary), so the
//     delivered stream is materialized once and then fed in chunks —
//     ingest itself still runs incrementally.
//
// Chunk size comes from LONGTAIL_STREAM_CHUNK (reports per chunk,
// default 64k); the result is chunking-invariant by construction, which
// the streaming tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/event.hpp"
#include "telemetry/faults.hpp"
#include "telemetry/streaming.hpp"
#include "telemetry/transport.hpp"

namespace longtail::synth {

class ChunkedFeed {
 public:
  // `raw` must be time-sorted and outlive the feed. The transport is
  // exercised only when `faults.transport_active()`.
  ChunkedFeed(std::span<const model::DownloadEvent> raw,
              const telemetry::FaultProfile& faults, std::uint64_t seed,
              std::size_t chunk_size);

  // Whether the underlying channel is exactly-once and time-ordered —
  // the matching value for `StreamingConfig::trusted`.
  [[nodiscard]] bool trusted() const noexcept { return !faulted_; }

  // Feeds the next chunk into `server`, appending any windows it closed.
  // Returns false once the stream is exhausted (call server.finish()).
  bool step(telemetry::StreamingCollectionServer& server,
            std::vector<telemetry::EventWindow>& closed);

  [[nodiscard]] bool done() const noexcept { return pos_ >= total_; }
  [[nodiscard]] std::size_t chunks_fed() const noexcept { return chunks_; }
  // Zero-valued on the fault-free path, where nothing crosses a channel.
  [[nodiscard]] const telemetry::TransportStats& transport_stats()
      const noexcept {
    return transport_stats_;
  }

  // Reads LONGTAIL_STREAM_CHUNK (reports per chunk); defaults to 64k.
  static std::size_t chunk_from_env();

 private:
  std::span<const model::DownloadEvent> raw_;
  bool faulted_;
  std::size_t chunk_;
  std::size_t total_;
  std::size_t pos_ = 0;
  std::size_t chunks_ = 0;
  std::vector<telemetry::DeliveredReport> delivered_;  // faulted path only
  std::vector<telemetry::DeliveredReport> buffer_;     // reused per chunk
  telemetry::TransportStats transport_stats_;
};

}  // namespace longtail::synth
