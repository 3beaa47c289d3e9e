#include "telemetry/streaming.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <string>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::telemetry {

namespace {

// §II-A reporting rules for one event. Exactly one stats counter is
// incremented per call, so counters always sum to the events examined.
void apply_rules(const model::DownloadEvent& e,
                 std::span<const model::UrlMeta> url_meta,
                 const CollectionPolicy& policy, CollectionStats& stats,
                 PrevalenceTracker& prevalence, EventStore& accepted) {
  if (!e.executed) {
    ++stats.dropped_not_executed;
    return;
  }
  assert(e.url.raw() < url_meta.size());
  const model::DomainId domain = url_meta[e.url.raw()].domain;
  if (policy.whitelisted_domains.contains(domain)) {
    ++stats.dropped_whitelisted_url;
    return;
  }
  if (!prevalence.admit(e.file, e.machine)) {
    ++stats.dropped_prevalence_cap;
    return;
  }
  ++stats.accepted;
  accepted.push_back(e);
}

// Mirrors a stats delta into the metrics registry (one add per counter,
// outside the hot loop).
void record_stats_delta(const CollectionStats& before,
                        const CollectionStats& after) {
  LONGTAIL_METRIC_COUNT("telemetry.events_accepted",
                        after.accepted - before.accepted);
  LONGTAIL_METRIC_COUNT(
      "telemetry.dropped.not_executed",
      after.dropped_not_executed - before.dropped_not_executed);
  LONGTAIL_METRIC_COUNT(
      "telemetry.dropped.whitelisted_url",
      after.dropped_whitelisted_url - before.dropped_whitelisted_url);
  LONGTAIL_METRIC_COUNT(
      "telemetry.dropped.prevalence_cap",
      after.dropped_prevalence_cap - before.dropped_prevalence_cap);
  LONGTAIL_METRIC_COUNT("telemetry.dropped.duplicate",
                        after.dropped_duplicate - before.dropped_duplicate);
  LONGTAIL_METRIC_COUNT("telemetry.dropped.stale",
                        after.dropped_stale - before.dropped_stale);
  LONGTAIL_METRIC_COUNT(
      "telemetry.quarantine.malformed",
      after.quarantined_malformed - before.quarantined_malformed);
}

template <typename Events>
std::vector<EventWindow> deliver_in_order(StreamingCollectionServer& server,
                                          const Events& events) {
  std::vector<EventWindow> windows;
  std::vector<DeliveredReport> chunk;
  chunk.reserve(std::min(events.size(), kCollectChunk));
  for (std::size_t begin = 0; begin < events.size(); begin += kCollectChunk) {
    const std::size_t end = std::min(events.size(), begin + kCollectChunk);
    chunk.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const model::DownloadEvent e = events[i];
      chunk.push_back(DeliveredReport{e, i, e.time, 0, false});
    }
    server.ingest(chunk, windows);
  }
  server.finish(windows);
  return windows;
}

}  // namespace

std::vector<EventWindow> collect_in_order(
    StreamingCollectionServer& server,
    std::span<const model::DownloadEvent> events) {
  return deliver_in_order(server, events);
}

std::vector<EventWindow> collect_in_order(StreamingCollectionServer& server,
                                          const EventStore& events) {
  return deliver_in_order(server, events);
}

model::Timestamp StreamingConfig::window_from_env() {
  static constexpr model::Timestamp kDefault = 7 * model::kSecondsPerDay;
  const char* env = std::getenv("LONGTAIL_STREAM_WINDOW");
  if (env == nullptr || *env == '\0') return kDefault;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return kDefault;
  return static_cast<model::Timestamp>(v);
}

StreamingCollectionServer::StreamingCollectionServer(
    StreamingConfig cfg, std::span<const model::UrlMeta> url_meta)
    : cfg_(std::move(cfg)),
      url_meta_(url_meta),
      prevalence_(cfg_.policy.sigma, cfg_.num_files) {}

model::Timestamp StreamingCollectionServer::window_end(
    std::size_t index) const noexcept {
  if (cfg_.window_s <= 0) return cfg_.period_end;
  const auto end = static_cast<model::Timestamp>(index + 1) * cfg_.window_s;
  return std::min(end, cfg_.period_end);
}

void StreamingCollectionServer::close_windows_through(
    model::Timestamp watermark, std::vector<EventWindow>& closed) {
  // Window k is final once the watermark reaches its end: any later
  // arrival reported inside it would be < released_through_, i.e. stale.
  const model::Timestamp begin_step =
      cfg_.window_s <= 0 ? cfg_.period_end : cfg_.window_s;
  while (static_cast<model::Timestamp>(next_window_) * begin_step <
             cfg_.period_end &&
         window_end(next_window_) <= watermark) {
    EventWindow w;
    w.index = next_window_;
    w.begin = static_cast<model::Timestamp>(next_window_) * begin_step;
    w.end = window_end(next_window_);
    w.events = std::move(open_events_);
    open_events_ = EventStore{};
    LONGTAIL_METRIC_COUNT("telemetry.stream.windows_closed", 1);
    LONGTAIL_METRIC_COUNT("telemetry.stream.window_events",
                          w.events.size());
    closed.push_back(std::move(w));
    ++next_window_;
  }
}

void StreamingCollectionServer::release_until(
    model::Timestamp watermark, std::vector<EventWindow>& closed) {
  while (!pending_.empty() && pending_.begin()->first.first <= watermark) {
    const model::DownloadEvent e = pending_.begin()->second;
    pending_.erase(pending_.begin());
    // The release sequence is nondecreasing in reported time, so windows
    // wholly behind this event are final — close them before admitting it.
    close_windows_through(e.time, closed);
    apply_rules(e, url_meta_, cfg_.policy, stats_, prevalence_, open_events_);
  }
  released_through_ = std::max(released_through_, watermark);
  close_windows_through(released_through_, closed);
}

void StreamingCollectionServer::ingest(std::span<const DeliveredReport> chunk,
                                       std::vector<EventWindow>& closed) {
  LONGTAIL_TRACE_SPAN_DETAIL("telemetry.stream.ingest",
                             "copies=" + std::to_string(chunk.size()));
  LONGTAIL_METRIC_COUNT("telemetry.stream.chunks", 1);
  const CollectionStats before = stats_;

  if (cfg_.trusted) {
    // Exactly-once ordered channel: every report is already in reported
    // time order with a unique id, so dedup and the reorder buffer are
    // no-ops — validate, advance the watermark, and apply the §II-A
    // rules directly into the open window.
    for (const auto& r : chunk) {
      ++consumed_;
      const model::DownloadEvent& e = r.event;
      if (e.url.raw() >= url_meta_.size() || e.file.raw() >= cfg_.num_files ||
          e.time < 0 || e.time >= cfg_.period_end) {
        ++stats_.quarantined_malformed;
        continue;
      }
      if (e.time < released_through_) {
        ++stats_.dropped_stale;  // feed violated the ordering contract
        continue;
      }
      close_windows_through(e.time, closed);
      released_through_ = std::max(released_through_, e.time);
      apply_rules(e, url_meta_, cfg_.policy, stats_, prevalence_,
                  open_events_);
    }
    assert(conserved());
    record_stats_delta(before, stats_);
    return;
  }

  // Dedup the whole chunk through the batched prefetch queue first: the
  // §II-A rules consult the dedup verdict before anything else, so
  // resolving every membership probe up front (in delivery order —
  // intra-chunk duplicates behave exactly like sequential inserts) hides
  // the per-report hash-probe latency.
  dedup_ids_.resize(chunk.size());
  dedup_fresh_.resize(chunk.size());
  for (std::size_t i = 0; i < chunk.size(); ++i)
    dedup_ids_[i] = chunk[i].report_id;
  seen_reports_.insert_batch(dedup_ids_, dedup_fresh_);

  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const DeliveredReport& r = chunk[i];
    ++consumed_;
    if (!dedup_fresh_[i]) {
      ++stats_.dropped_duplicate;
      continue;
    }
    const model::DownloadEvent& e = r.event;
    if (e.url.raw() >= url_meta_.size() || e.file.raw() >= cfg_.num_files ||
        e.time < 0 || e.time >= cfg_.period_end) {
      ++stats_.quarantined_malformed;
      continue;
    }
    // Advance the arrival watermark, then admit the new event — or drop
    // it as stale if its slot in the order has already been released.
    const auto horizon =
        static_cast<model::Timestamp>(cfg_.policy.reorder_horizon_s);
    release_until(r.arrival - horizon, closed);
    if (e.time < released_through_) {
      ++stats_.dropped_stale;
      continue;
    }
    pending_.emplace(std::make_pair(e.time, r.report_id), e);
  }

  assert(conserved());
  LONGTAIL_METRIC_GAUGE("telemetry.stream.pending",
                        static_cast<std::int64_t>(pending_.size()));
  record_stats_delta(before, stats_);
}

void StreamingCollectionServer::finish(std::vector<EventWindow>& closed) {
  if (finished_) return;
  finished_ = true;
  LONGTAIL_TRACE_SPAN("telemetry.stream_finish");
  const CollectionStats before = stats_;
  release_until(std::numeric_limits<model::Timestamp>::max(), closed);
  assert(pending_.empty());
  assert(conserved());
  record_stats_delta(before, stats_);
}

}  // namespace longtail::telemetry
