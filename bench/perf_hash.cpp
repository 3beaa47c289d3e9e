// google-benchmark microbenchmarks plus a machine-readable comparison for
// util::FlatMap / util::FlatSet (src/util/flat_table.hpp) — the
// partitioned open-addressing table behind the migrated hot lookup paths
// (prevalence tracking, retransmit dedup, whitelist, reputation,
// interner, chain fixup).
//
// main() times three find implementations over the same 100k-key
// workload — FlatMap scalar probes, FlatMap find_batch (software
// prefetch, kBatchWidth-key windows), and std::unordered_map — plus the
// matching bulk-insert paths, and a sharded concurrent-read scaling pass
// at LONGTAIL_THREADS = 1, 2, 8. Results land in BENCH_hash.json; CI
// pins the schema and gates `find.batched_vs_unordered >= 1.3`, the
// speedup the migration claims. LONGTAIL_BENCH_MICRO=0 skips the micro
// suite; LONGTAIL_HASH_KEYS overrides the key count (the JSON records
// whatever was used, but the CI gate expects the default).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "util/flat_table.hpp"

namespace {

using namespace longtail;

constexpr std::size_t kDefaultKeys = 100'000;
constexpr std::uint64_t kSeed = 0x1005'7a11'5eedULL;

std::size_t bench_keys() {
  if (const char* env = std::getenv("LONGTAIL_HASH_KEYS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  return kDefaultKeys;
}

// Deterministic key material: distinct pseudo-random u64 keys plus a
// shuffled probe order, so every implementation sees the same misses in
// the same sequence and two runs of the bench measure the same workload.
std::vector<std::uint64_t> make_keys(std::size_t n) {
  std::mt19937_64 rng(kSeed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  while (keys.size() < n) keys.push_back(rng());
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

std::vector<std::uint64_t> shuffled(std::vector<std::uint64_t> keys,
                                    std::uint64_t salt) {
  std::mt19937_64 rng(kSeed ^ salt);
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

// ---- google-benchmark micro suite --------------------------------------

void BM_FlatFindScalar(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  util::FlatMap<std::uint64_t, std::uint64_t> table;
  for (const auto k : keys) table.try_emplace(k, k * 3);
  const auto probes = shuffled(keys, 1);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto k : probes) sum += *table.find(k);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes.size()) *
                          state.iterations());
}
BENCHMARK(BM_FlatFindScalar)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_FlatFindBatched(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  util::FlatMap<std::uint64_t, std::uint64_t> table;
  for (const auto k : keys) table.try_emplace(k, k * 3);
  const auto probes = shuffled(keys, 1);
  std::vector<const std::uint64_t*> out(probes.size());
  for (auto _ : state) {
    table.find_batch(probes, out);
    std::uint64_t sum = 0;
    for (const auto* v : out) sum += *v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes.size()) *
                          state.iterations());
}
BENCHMARK(BM_FlatFindBatched)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_UnorderedFind(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (const auto k : keys) table.emplace(k, k * 3);
  const auto probes = shuffled(keys, 1);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto k : probes) sum += table.find(k)->second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes.size()) *
                          state.iterations());
}
BENCHMARK(BM_UnorderedFind)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_FlatInsert(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::FlatMap<std::uint64_t, std::uint64_t> table;
    for (const auto k : keys) table.try_emplace(k, k);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_FlatInsert)->Arg(100'000);

void BM_UnorderedInsert(benchmark::State& state) {
  const auto keys = make_keys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (const auto k : keys) table.emplace(k, k);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_UnorderedInsert)->Arg(100'000);

// ---- BENCH_hash.json trajectory ----------------------------------------

// Best-of-kReps wall time for one full probe pass, in ns per key.
constexpr int kReps = 7;

template <typename Fn>
double best_ns_per_key(std::size_t n, Fn&& pass) {
  double best_ms = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double ms = bench::time_ms(pass);
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return 1e6 * best_ms / static_cast<double>(n);
}

void emit_trajectory() {
  const std::size_t n = bench_keys();
  const auto keys = make_keys(n);
  const auto probes = shuffled(keys, 1);

  util::metrics::set_enabled(true);
  util::FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> unordered;
  const double flat_insert_ns = best_ns_per_key(n, [&] {
    flat.clear();
    for (const auto k : keys) flat.try_emplace(k, k * 3);
  });
  const double unordered_insert_ns = best_ns_per_key(n, [&] {
    unordered.clear();
    for (const auto k : keys) unordered.emplace(k, k * 3);
  });
  std::vector<std::uint64_t> values(keys);
  for (auto& v : values) v *= 3;
  util::FlatMap<std::uint64_t, std::uint64_t> flat_batched;
  const double flat_insert_batched_ns = best_ns_per_key(n, [&] {
    flat_batched.clear();
    flat_batched.insert_batch(keys, values);
  });

  // Each find pass resolves every probe to a value pointer in `out`; the
  // checksum over the resolved values is folded *outside* the timed
  // region so all three implementations time exactly the same work. All
  // three checksums must agree or the comparison is meaningless.
  std::vector<const std::uint64_t*> out(probes.size());
  const auto checksum = [&out] {
    std::uint64_t sum = 0;
    for (const auto* v : out) sum += *v;
    return sum;
  };
  const double flat_scalar_ns = best_ns_per_key(n, [&] {
    for (std::size_t i = 0; i < probes.size(); ++i)
      out[i] = flat.find(probes[i]);
  });
  const std::uint64_t sum_scalar = checksum();
  const double flat_batched_ns =
      best_ns_per_key(n, [&] { flat.find_batch(probes, out); });
  const std::uint64_t sum_batched = checksum();
  const double unordered_ns = best_ns_per_key(n, [&] {
    for (std::size_t i = 0; i < probes.size(); ++i)
      out[i] = &unordered.find(probes[i])->second;
  });
  const std::uint64_t sum_unordered = checksum();
  std::uint64_t sum_batched_table = 0;
  for (const auto k : probes) sum_batched_table += *flat_batched.find(k);
  const bool equivalent = sum_scalar == sum_batched &&
                          sum_scalar == sum_unordered &&
                          sum_scalar == sum_batched_table;

  const double batched_vs_unordered =
      flat_batched_ns > 0 ? unordered_ns / flat_batched_ns : 0.0;
  const double batched_vs_scalar =
      flat_batched_ns > 0 ? flat_scalar_ns / flat_batched_ns : 0.0;
  const double scalar_vs_unordered =
      flat_scalar_ns > 0 ? unordered_ns / flat_scalar_ns : 0.0;

  std::printf(
      "\n[longtail] hash find at %zu keys (ns/key, best of %d): "
      "flat scalar %.1f, flat batched %.1f, unordered %.1f\n"
      "[longtail] batched speedup: %.2fx vs unordered, %.2fx vs scalar; "
      "checksums %s\n",
      n, kReps, flat_scalar_ns, flat_batched_ns, unordered_ns,
      batched_vs_unordered, batched_vs_scalar,
      equivalent ? "equal" : "MISMATCH");

  // Concurrent sharded reads — the contract the migrated parallel scans
  // rely on: const probes from every worker, no synchronization. Reported
  // as total lookups/sec per canonical thread count.
  std::string scaling_json = "[";
  constexpr std::size_t kShards = 64;
  const std::size_t shard = (n + kShards - 1) / kShards;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    std::vector<std::uint64_t> sums(kShards, 0);
    const double ms = bench::time_ms([&] {
      util::parallel_for(kShards, [&](std::size_t s) {
        const std::size_t begin = s * shard;
        const std::size_t end = std::min(n, begin + shard);
        if (begin >= end) return;
        std::vector<const std::uint64_t*> slice(end - begin);
        flat.find_batch(
            std::span<const std::uint64_t>(probes).subspan(begin, end - begin),
            slice);
        std::uint64_t sum = 0;
        for (const auto* v : slice) sum += *v;
        sums[s] = sum;
      });
    });
    std::uint64_t total = 0;
    for (const auto s : sums) total += s;
    const double rate = ms > 0 ? 1000.0 * static_cast<double>(n) / ms : 0.0;
    std::printf("[longtail] sharded reads threads=%u: %.2f ms (%.0f "
                "lookups/s)%s\n",
                threads, ms, rate, total == sum_scalar ? "" : " MISMATCH");
    if (scaling_json.size() > 1) scaling_json += ", ";
    scaling_json += util::json::Object()
                        .field("threads", threads)
                        .field("ms", ms)
                        .field("lookups_per_sec", rate)
                        .field("consistent", total == sum_scalar)
                        .str();
  }
  scaling_json += "]";
  util::set_global_threads(util::ThreadPool::default_threads());

  const auto counters =
      util::json::Object()
          .field("probes", util::metrics::counter("util.flat_table.probes")
                               .value())
          .field("prefetch_batches",
                 util::metrics::counter("util.flat_table.prefetch_batches")
                     .value())
          .field("rehashes",
                 util::metrics::counter("util.flat_table.rehashes").value())
          .str();

  const auto json =
      util::json::Object()
          .field("bench", std::string_view("hash"))
          .field("keys", static_cast<std::uint64_t>(n))
          .raw("run", bench::run_manifest_json(0.0))
          .raw("find", util::json::Object()
                           .field("flat_scalar_ns_per_key", flat_scalar_ns)
                           .field("flat_batched_ns_per_key", flat_batched_ns)
                           .field("unordered_ns_per_key", unordered_ns)
                           .field("batched_vs_unordered", batched_vs_unordered)
                           .field("batched_vs_scalar", batched_vs_scalar)
                           .field("scalar_vs_unordered", scalar_vs_unordered)
                           .str())
          .raw("insert",
               util::json::Object()
                   .field("flat_ns_per_key", flat_insert_ns)
                   .field("flat_batched_ns_per_key", flat_insert_batched_ns)
                   .field("unordered_ns_per_key", unordered_insert_ns)
                   .field("flat_vs_unordered",
                          flat_insert_ns > 0
                              ? unordered_insert_ns / flat_insert_ns
                              : 0.0)
                   .str())
          .raw("scaling", scaling_json)
          .raw("counters", counters)
          .field("equivalent", equivalent)
          .field("max_rss_mb", bench::max_rss_mb())
          .str();
  bench::write_bench_json("BENCH_hash.json", json);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* micro = std::getenv("LONGTAIL_BENCH_MICRO");
  if (micro == nullptr || std::string_view(micro) != "0")
    benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_trajectory();
  return 0;
}
