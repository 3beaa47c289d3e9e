#include "telemetry/scan.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "analysis/annotated.hpp"
#include "analysis/monthly.hpp"
#include "analysis/prevalence.hpp"
#include "analysis/signers.hpp"
#include "analysis/transitions.hpp"
#include "synth/generator.hpp"
#include "util/thread_pool.hpp"

namespace longtail::telemetry {
namespace {

using model::DownloadEvent;
using model::FileId;
using model::MachineId;
using model::ProcessId;
using model::UrlId;

Corpus synthetic_corpus(std::size_t n_events) {
  Corpus c;
  c.machine_count = 17;
  c.files.resize(31);
  c.processes.resize(1);
  c.urls.resize(1);
  c.domains.resize(1);
  c.events.reserve(n_events);
  for (std::size_t i = 0; i < n_events; ++i)
    c.events.push_back(DownloadEvent{
        FileId{static_cast<std::uint32_t>(i % 31)},
        MachineId{static_cast<std::uint32_t>(i % 17)}, ProcessId{0}, UrlId{0},
        static_cast<model::Timestamp>(i)});
  return c;
}

// Restores the environment's thread count when a test exits.
class ThreadGuard {
 public:
  ~ThreadGuard() {
    util::set_global_threads(util::ThreadPool::default_threads());
  }
};

TEST(ScanShardCount, IsDataDerived) {
  EXPECT_EQ(scan_shard_count(0), 1u);
  EXPECT_EQ(scan_shard_count(1), 1u);
  EXPECT_EQ(scan_shard_count(kScanShardSize - 1), 1u);
  EXPECT_EQ(scan_shard_count(kScanShardSize), 1u);
  EXPECT_EQ(scan_shard_count(kScanShardSize + 1), 2u);
  EXPECT_EQ(scan_shard_count(10 * kScanShardSize), 10u);
}

TEST(Scan, LowerBoundTimeFindsWindowEdges) {
  const Corpus c = synthetic_corpus(50);
  EXPECT_EQ(lower_bound_time(c, 0), 0u);
  EXPECT_EQ(lower_bound_time(c, 25), 25u);
  EXPECT_EQ(lower_bound_time(c, 1000), 50u);
}

TEST(Scan, ReduceMatchesSerialSum) {
  const Corpus c = synthetic_corpus(3 * kScanShardSize + 17);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < c.events.size(); ++i)
    expected += static_cast<std::uint64_t>(c.events[i].time());
  const auto total = scan_reduce(
      c, [] { return std::uint64_t{0}; },
      [](std::uint64_t& acc, const auto& e) {
        acc += static_cast<std::uint64_t>(e.time());
      },
      [](std::uint64_t& total_acc, std::uint64_t&& shard) {
        total_acc += shard;
      },
      "test.sum");
  EXPECT_EQ(total, expected);
}

TEST(Scan, ReduceIsThreadCountInvariant) {
  ThreadGuard guard;
  const Corpus c = synthetic_corpus(2 * kScanShardSize + 1234);
  // An order-sensitive accumulator: concatenating shard-local sequences in
  // combine order must reproduce the serial event order exactly.
  auto run = [&] {
    return scan_reduce(
        c, [] { return std::vector<std::uint32_t>{}; },
        [](std::vector<std::uint32_t>& acc, const auto& e) {
          acc.push_back(static_cast<std::uint32_t>(e.index()));
        },
        [](std::vector<std::uint32_t>& total,
           std::vector<std::uint32_t>&& shard) {
          total.insert(total.end(), shard.begin(), shard.end());
        },
        "test.order");
  };
  util::set_global_threads(1);
  const auto serial = run();
  ASSERT_EQ(serial.size(), c.events.size());
  EXPECT_TRUE(std::is_sorted(serial.begin(), serial.end()));
  for (const unsigned threads : {2u, 8u}) {
    util::set_global_threads(threads);
    EXPECT_EQ(run(), serial) << "threads=" << threads;
  }
}

TEST(Scan, ReduceIndexedIsThreadCountInvariant) {
  ThreadGuard guard;
  const std::size_t n = kScanShardSize + 99;
  auto run = [&] {
    return scan_reduce_indexed(
        n, [] { return std::uint64_t{0}; },
        [](std::uint64_t& acc, std::size_t i) { acc += i * i; },
        [](std::uint64_t& total, std::uint64_t&& shard) { total += shard; },
        "test.indexed");
  };
  util::set_global_threads(1);
  const auto serial = run();
  for (const unsigned threads : {2u, 8u}) {
    util::set_global_threads(threads);
    EXPECT_EQ(run(), serial) << "threads=" << threads;
  }
}

// The migrated measurement passes must not depend on LONGTAIL_THREADS.
TEST(Scan, MigratedAnalysesAreThreadCountInvariant) {
  ThreadGuard guard;
  const auto ds = synth::generate_dataset(0.01);
  const auto a = analysis::annotate(ds.corpus, ds.whitelist, ds.vt);

  util::set_global_threads(1);
  const auto monthly1 = analysis::monthly_summary(a);
  const auto rates1 = analysis::signing_rates(a);
  const auto prev1 = analysis::prevalence_distributions(a);
  const auto trans1 = analysis::transition_analysis(a);

  for (const unsigned threads : {2u, 8u}) {
    util::set_global_threads(threads);
    const auto monthly = analysis::monthly_summary(a);
    EXPECT_EQ(monthly.overall.events, monthly1.overall.events);
    EXPECT_EQ(monthly.overall.files, monthly1.overall.files);
    EXPECT_EQ(monthly.overall.machines, monthly1.overall.machines);
    EXPECT_EQ(monthly.overall.file_malicious, monthly1.overall.file_malicious);

    const auto rates = analysis::signing_rates(a);
    EXPECT_EQ(rates.benign.files, rates1.benign.files);
    EXPECT_EQ(rates.malicious.files, rates1.malicious.files);
    EXPECT_EQ(rates.malicious.signed_pct, rates1.malicious.signed_pct);

    const auto prev = analysis::prevalence_distributions(a);
    EXPECT_EQ(prev.all.size(), prev1.all.size());
    EXPECT_EQ(prev.prevalence_one_fraction, prev1.prevalence_one_fraction);

    const auto trans = analysis::transition_analysis(a);
    EXPECT_EQ(trans.adware.transitioned, trans1.adware.transitioned);
    EXPECT_EQ(trans.dropper.cdf_by_day, trans1.dropper.cdf_by_day);
  }
}

}  // namespace
}  // namespace longtail::telemetry
