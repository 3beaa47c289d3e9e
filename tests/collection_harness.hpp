// Drives a StreamingCollectionServer over a whole delivered stream — the
// shape the §II-A rule, reorder and quarantine tests need.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "telemetry/streaming.hpp"

namespace longtail::test {

// A server applying `policy` in one window over the whole period; valid
// FileIds are [0, 50). `trusted` selects the exactly-once, time-ordered
// channel path; otherwise dedup, quarantine and the reorder buffer run.
inline telemetry::StreamingCollectionServer make_server(
    telemetry::CollectionPolicy policy, std::span<const model::UrlMeta> urls,
    bool trusted) {
  telemetry::StreamingConfig cfg;
  cfg.policy = std::move(policy);
  cfg.num_files = 50;
  cfg.trusted = trusted;
  return telemetry::StreamingCollectionServer(std::move(cfg), urls);
}

// The accepted stream so far: the events of `windows`, in window order.
inline telemetry::EventStore concat_windows(
    std::span<const telemetry::EventWindow> windows) {
  telemetry::EventStore events;
  for (const telemetry::EventWindow& w : windows)
    for (const auto e : w.events) events.push_back(e);
  return events;
}

// Delivers `delivered` to the end of the stream and returns every
// accepted event.
inline telemetry::EventStore collect(
    telemetry::StreamingCollectionServer& server,
    std::span<const telemetry::DeliveredReport> delivered) {
  std::vector<telemetry::EventWindow> windows;
  server.ingest(delivered, windows);
  server.finish(windows);
  return concat_windows(windows);
}

}  // namespace longtail::test
