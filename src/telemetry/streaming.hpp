// Windowed streaming ingest: the collection server.
//
// `StreamingCollectionServer` applies the §II-A reporting rules
// (collection.hpp) to a delivered report stream. It consumes
// `DeliveredReport` chunks incrementally (the chunks must partition an
// arrival-sorted stream, i.e. FaultyTransport::deliver output split at any
// boundaries) and emits *closed time-windows* of accepted events as the
// arrival watermark advances. The bounded reorder buffer is the
// window-advance primitive: window k = [k·W, (k+1)·W) (clipped to the
// collection period) closes exactly when the watermark guarantees no
// event with a reported time inside it can still be admitted — events
// earlier than `watermark()` are stale by the reorder rule, so once
// `watermark() >= window.end` the window's contents are final.
//
// Within a window, events appear in (time, report_id) release order; the
// concatenation of all closed windows is the same for every chunking and
// every window width, including `window_s = 0`, the single window over
// the whole period — windowing only partitions the release sequence, it
// never reorders it.
//
// The §II-A conservation law holds at every watermark, not just at
// end-of-stream: every consumed copy is either counted by exactly one
// `CollectionStats` counter or still held in the reorder buffer, i.e.
//   consumed() == stats().total_seen() + pending().
// `conserved()` checks this invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "model/event.hpp"
#include "model/time.hpp"
#include "telemetry/collection.hpp"
#include "telemetry/event_store.hpp"
#include "telemetry/transport.hpp"
#include "util/flat_table.hpp"

namespace longtail::telemetry {

struct StreamingConfig {
  CollectionPolicy policy;
  // Window width in seconds; <= 0 means a single window spanning the
  // whole collection period.
  model::Timestamp window_s = 0;
  // Valid FileIds are [0, num_files) — payload validation bound.
  std::size_t num_files = 0;
  // One past the last valid reported timestamp (timestamps are validated
  // to [0, period_end)).
  model::Timestamp period_end =
      model::kMonthStart[model::kNumCalendarMonths];
  // Channel contract: when true the stream is exactly-once and in
  // reported-time order (`collect_in_order`'s delivery), so ingest skips
  // the dedup set and the reorder buffer — on such a stream both are
  // provably no-ops and the emitted windows are identical to the
  // untrusted path's, without the per-report hash/map cost.
  bool trusted = false;

  // Reads LONGTAIL_STREAM_WINDOW (seconds). Unset, empty, non-numeric
  // and non-positive values all give the 7-day default.
  static model::Timestamp window_from_env();
};

// One closed window of accepted events, [begin, end) in reported time.
struct EventWindow {
  std::size_t index = 0;  // begin == index * window_s
  model::Timestamp begin = 0;
  model::Timestamp end = 0;  // exclusive; clipped to period_end
  EventStore events;         // in (time, report_id) release order
};

class StreamingCollectionServer {
 public:
  // `url_meta` is borrowed and must outlive the server.
  StreamingCollectionServer(StreamingConfig cfg,
                            std::span<const model::UrlMeta> url_meta);

  StreamingCollectionServer(const StreamingCollectionServer&) = delete;
  StreamingCollectionServer& operator=(const StreamingCollectionServer&) =
      delete;

  // Consumes one chunk (arrival-sorted, continuing the stream consumed so
  // far) and appends any windows the watermark advance closed.
  void ingest(std::span<const DeliveredReport> chunk,
              std::vector<EventWindow>& closed);

  // End of stream: flushes the reorder buffer and closes every remaining
  // window through `period_end`. Idempotent.
  void finish(std::vector<EventWindow>& closed);

  [[nodiscard]] const CollectionStats& stats() const noexcept {
    return stats_;
  }
  // Delivered copies consumed so far.
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }
  // Events held in the reorder buffer (consumed but not yet counted).
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  // Arrival watermark: reported times <= this have been released; a later
  // arrival reported strictly earlier is stale.
  [[nodiscard]] model::Timestamp watermark() const noexcept {
    return released_through_;
  }
  // Distinct machines that downloaded `f` among *accepted* events, capped
  // at sigma by construction.
  [[nodiscard]] std::uint32_t reported_prevalence(model::FileId f) const {
    return prevalence_.prevalence(f);
  }
  // σ-cap saturation over everything admitted so far (see
  // PrevalenceTracker::saturated_files).
  [[nodiscard]] std::uint64_t sigma_saturated_files() const {
    return prevalence_.saturated_files();
  }
  [[nodiscard]] std::uint64_t sigma_tracked_files() const {
    return prevalence_.tracked_files();
  }

  // Conservation law at the current watermark (see file comment).
  [[nodiscard]] bool conserved() const noexcept {
    return consumed_ == stats_.total_seen() + pending();
  }

 private:
  void release_until(model::Timestamp watermark,
                     std::vector<EventWindow>& closed);
  void close_windows_through(model::Timestamp watermark,
                             std::vector<EventWindow>& closed);
  [[nodiscard]] model::Timestamp window_end(std::size_t index) const noexcept;

  StreamingConfig cfg_;
  std::span<const model::UrlMeta> url_meta_;

  CollectionStats stats_;
  PrevalenceTracker prevalence_;

  // Retransmit dedup: one membership probe per delivered copy. Ingest
  // batch-inserts a whole chunk's report ids through the prefetch queue
  // (see FlatSet::insert_batch); the scratch vectors below avoid a
  // per-chunk allocation.
  util::FlatSet<std::uint64_t> seen_reports_;
  std::vector<std::uint64_t> dedup_ids_;
  std::vector<std::uint8_t> dedup_fresh_;
  // Reorder buffer keyed by (reported time, report_id) — a unique total
  // order, so the release sequence is deterministic.
  std::map<std::pair<model::Timestamp, std::uint64_t>, model::DownloadEvent>
      pending_;
  model::Timestamp released_through_ =
      std::numeric_limits<model::Timestamp>::min();

  std::uint64_t consumed_ = 0;
  std::size_t next_window_ = 0;  // index of the open (unclosed) window
  EventStore open_events_;       // accepted events of the open window
  bool finished_ = false;
};

// Reports per `ingest` call in `collect_in_order`.
inline constexpr std::size_t kCollectChunk = 64 * 1024;

// Delivers an exactly-once, time-ordered event stream to `server` as the
// fault-free channel does — report_id = index, arrival = reported time —
// kCollectChunk reports per `ingest`, finishes the stream and returns
// every window the server closed.
[[nodiscard]] std::vector<EventWindow> collect_in_order(
    StreamingCollectionServer& server,
    std::span<const model::DownloadEvent> events);
[[nodiscard]] std::vector<EventWindow> collect_in_order(
    StreamingCollectionServer& server, const EventStore& events);

}  // namespace longtail::telemetry
