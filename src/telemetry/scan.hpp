// The shared corpus-scan layer: every full-corpus pass in the analysis,
// baseline, feature, and ground-truth modules goes through these helpers
// instead of hand-rolled `for` loops over the event table.
//
//   * `scan_reduce(corpus[, begin, end], make_acc, fn, combine)` — the
//     parallel workhorse. The event range is split into shards whose count
//     is *data-derived* (~32k events per shard, never the thread count);
//     each shard folds its events in time order into a fresh accumulator
//     from `make_acc()`, and `combine(total, shard_acc)` merges shard
//     results serially in ascending shard order. With a combine that is
//     either commutative or order-preserving, results are bit-identical
//     for every LONGTAIL_THREADS setting — the same contract as
//     `util::sharded_for`, which this wraps.
//   * `scan_reduce_indexed(n, make_acc, fn, combine)` — the same shape for
//     entity tables (files, machines, urls) instead of events.
//
// All scans emit `corpus.scan` trace spans (detail = call-site label) and
// the `corpus.scan.*` metrics documented in docs/observability.md.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "telemetry/corpus.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::telemetry {

// Target events per scan shard. Data-derived (never the thread count) so
// the shard decomposition — and therefore every combine order — is a pure
// function of the corpus. ~32k events keeps default-scale corpora around
// ten shards while leaving unit-test corpora single-sharded.
inline constexpr std::size_t kScanShardSize = 32 * 1024;

[[nodiscard]] constexpr std::size_t scan_shard_count(std::size_t n) noexcept {
  return n < kScanShardSize ? 1 : (n + kScanShardSize - 1) / kScanShardSize;
}

// Index of the first event at or after `t`. Events are time-sorted, so
// this turns "scan until the training window ends" into a bounded range
// [0, lower_bound_time(c, train_end)) that shards cleanly.
[[nodiscard]] inline std::size_t lower_bound_time(const Corpus& corpus,
                                                  model::Timestamp t) {
  const auto times = corpus.events.time_column();
  return static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), t) - times.begin());
}

// Deterministic sharded reduction over the event range [begin, end).
// fn(acc, EventRef) folds one event; combine(total, shard_acc) merges in
// ascending shard order. Returns the combined accumulator.
template <typename MakeAcc, typename Fn, typename Combine>
auto scan_reduce(const Corpus& corpus, std::size_t begin, std::size_t end,
                 MakeAcc make_acc, Fn fn, Combine combine,
                 const char* label = "") {
  using Acc = decltype(make_acc());
  LONGTAIL_TRACE_SPAN_DETAIL("corpus.scan", std::string(label));
  const std::size_t n = end - begin;
  const std::size_t n_shards = scan_shard_count(n);
  LONGTAIL_METRIC_COUNT("corpus.scan.invocations", 1);
  LONGTAIL_METRIC_COUNT("corpus.scan.events_scanned", n);
  LONGTAIL_METRIC_COUNT("corpus.scan.shards", n_shards);
  Acc total = make_acc();
  util::sharded_for(
      n, n_shards,
      [&](std::size_t, std::size_t b, std::size_t e) {
        Acc acc = make_acc();
        for (std::size_t i = begin + b; i < begin + e; ++i)
          fn(acc, corpus.events[i]);
        return acc;
      },
      [&](Acc&& shard, std::size_t) { combine(total, std::move(shard)); });
  return total;
}

template <typename MakeAcc, typename Fn, typename Combine>
auto scan_reduce(const Corpus& corpus, MakeAcc make_acc, Fn fn,
                 Combine combine, const char* label = "") {
  return scan_reduce(corpus, 0, corpus.events.size(), std::move(make_acc),
                     std::move(fn), std::move(combine), label);
}

// Deterministic sharded reduction over an entity index range [0, n) —
// files, machines, observed-file lists. fn(acc, i) folds one index.
template <typename MakeAcc, typename Fn, typename Combine>
auto scan_reduce_indexed(std::size_t n, MakeAcc make_acc, Fn fn,
                         Combine combine, const char* label = "") {
  using Acc = decltype(make_acc());
  LONGTAIL_TRACE_SPAN_DETAIL("corpus.scan", std::string(label));
  const std::size_t n_shards = scan_shard_count(n);
  LONGTAIL_METRIC_COUNT("corpus.scan.invocations", 1);
  LONGTAIL_METRIC_COUNT("corpus.scan.items_scanned", n);
  LONGTAIL_METRIC_COUNT("corpus.scan.shards", n_shards);
  Acc total = make_acc();
  util::sharded_for(
      n, n_shards,
      [&](std::size_t, std::size_t b, std::size_t e) {
        Acc acc = make_acc();
        for (std::size_t i = b; i < e; ++i) fn(acc, i);
        return acc;
      },
      [&](Acc&& shard, std::size_t) { combine(total, std::move(shard)); });
  return total;
}

}  // namespace longtail::telemetry
