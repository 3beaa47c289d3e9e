#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "util/json.hpp"

namespace longtail::util::metrics {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_next_shard{0};
thread_local std::size_t t_shard = SIZE_MAX;

bool init_from_env() {
  if (const char* env = std::getenv("LONGTAIL_METRICS");
      env != nullptr && *env != '\0' && std::string_view(env) != "0") {
    g_enabled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

// Metric objects are unique_ptr-held so references stay stable as the
// maps grow; the maps are ordered so snapshots come out sorted by name.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during atexit
  return *r;
}

template <typename Map>
auto& lookup(Map& map, std::mutex& mutex, std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    using Value = typename Map::mapped_type::element_type;
    it = map.emplace(std::string(name), std::make_unique<Value>()).first;
  }
  return *it->second;
}

// Bucket b covers values <= 2^b microseconds; the last bucket overflows.
std::size_t bucket_for_ms(double ms) {
  constexpr std::size_t last = detail::HistogramShard::kBuckets - 1;
  const double us = ms * 1000.0;
  if (us <= 1.0) return 0;
  if (us >= static_cast<double>(1ULL << last)) return last;
  const auto v = static_cast<std::uint64_t>(us);
  const auto b = static_cast<std::size_t>(std::bit_width(v) -
                                          (std::has_single_bit(v) ? 1 : 0));
  return std::min(b, last);
}

double bucket_upper_ms(std::size_t b) {
  return static_cast<double>(1ULL << b) / 1000.0;
}

}  // namespace

bool enabled() noexcept {
  static const bool env_enabled = init_from_env();
  (void)env_enabled;
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled();  // force env init first so it cannot override a later set
  g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t shard_index() noexcept {
  if (t_shard == SIZE_MAX)
    t_shard = g_next_shard.fetch_add(1, std::memory_order_relaxed) %
              kMetricShards;
  return t_shard;
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
}

void Histogram::record_ms(double ms) noexcept {
  auto& shard = shards_[shard_index()];
  shard.buckets[bucket_for_ms(ms)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  const auto ns = static_cast<std::uint64_t>(ms * 1e6);
  shard.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = shard.min_ns.load(std::memory_order_relaxed);
  while (ns < seen && !shard.min_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
  seen = shard.max_ns.load(std::memory_order_relaxed);
  while (ns > seen && !shard.max_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard.count.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum_ms() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard.sum_ns.load(std::memory_order_relaxed);
  return static_cast<double>(total) / 1e6;
}

double Histogram::mean_ms() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : sum_ms() / static_cast<double>(n);
}

double Histogram::min_ms() const noexcept {
  std::uint64_t lo = UINT64_MAX;
  for (const auto& shard : shards_)
    lo = std::min(lo, shard.min_ns.load(std::memory_order_relaxed));
  return lo == UINT64_MAX ? 0.0 : static_cast<double>(lo) / 1e6;
}

double Histogram::max_ms() const noexcept {
  std::uint64_t hi = 0;
  for (const auto& shard : shards_)
    hi = std::max(hi, shard.max_ns.load(std::memory_order_relaxed));
  return static_cast<double>(hi) / 1e6;
}

double Histogram::quantile_ms(double q) const noexcept {
  std::array<std::uint64_t, detail::HistogramShard::kBuckets> combined{};
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < combined.size(); ++b) {
      const auto v = shard.buckets[b].load(std::memory_order_relaxed);
      combined[b] += v;
      total += v;
    }
  }
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < combined.size(); ++b) {
    seen += combined[b];
    if (seen >= target) return bucket_upper_ms(b);
  }
  return bucket_upper_ms(combined.size() - 1);
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum_ns.store(0, std::memory_order_relaxed);
    shard.min_ns.store(UINT64_MAX, std::memory_order_relaxed);
    shard.max_ns.store(0, std::memory_order_relaxed);
  }
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  return lookup(r.counters, r.mutex, name);
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  return lookup(r.gauges, r.mutex, name);
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  return lookup(r.histograms, r.mutex, name);
}

std::string snapshot_json() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  json::Object counters;
  for (const auto& [name, c] : r.counters) counters.field(name, c->value());
  json::Object gauges;
  for (const auto& [name, g] : r.gauges) gauges.field(name, g->value());
  json::Object histograms;
  for (const auto& [name, h] : r.histograms)
    histograms.raw(name, json::Object()
                             .field("count", h->count())
                             .field("sum_ms", h->sum_ms())
                             .field("mean_ms", h->mean_ms())
                             .field("min_ms", h->min_ms())
                             .field("max_ms", h->max_ms())
                             .field("p50_ms", h->quantile_ms(0.50))
                             .field("p90_ms", h->quantile_ms(0.90))
                             .field("p99_ms", h->quantile_ms(0.99))
                             .str());
  return json::Object()
      .raw("counters", counters.str())
      .raw("gauges", gauges.str())
      .raw("histograms", histograms.str())
      .str();
}

void reset_for_testing() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

}  // namespace longtail::util::metrics
