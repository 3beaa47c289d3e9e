// telemetry::FileMachines (telemetry/file_machines.hpp) against one
// std::set per file, at every cap the pipeline uses; PrevalenceTracker's
// sigma rule on top of it; and util::for_each_ahead, the prefetch-ahead
// loop the streaming windows walk.
#include "telemetry/file_machines.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "telemetry/collection.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace longtail::telemetry {
namespace {

using model::FileId;
using model::MachineId;

constexpr std::uint32_t kInitialFiles = 64;
constexpr std::uint32_t kFiles = 96;  // ids 64..95 grow the table
constexpr std::uint32_t kMachines = 50;

// The reference rule: a machine already in the set stays admitted; a new
// one joins only while the set holds fewer than `cap` machines.
bool reference_insert(std::set<std::uint32_t>& set, std::uint32_t m,
                      std::uint32_t cap) {
  if (set.contains(m)) return true;
  if (set.size() >= cap) return false;
  set.insert(m);
  return true;
}

// A random insert stream over interleaved files: ids with f % 5 == 4 are
// never inserted, ids with f % 5 == 3 always carry the same machine, and
// the rest draw from a pool small enough to repeat machines.
std::vector<std::pair<std::uint32_t, std::uint32_t>> insert_stream(
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ops;
  while (ops.size() < 20'000) {
    const auto f = static_cast<std::uint32_t>(rng.uniform(kFiles));
    if (f % 5 == 4) continue;
    const auto m = f % 5 == 3 ? (f * 7) % kMachines
                              : static_cast<std::uint32_t>(
                                    rng.uniform(kMachines));
    ops.emplace_back(f, m);
  }
  return ops;
}

void expect_same_set(const FileMachines& table, std::uint32_t f,
                     const std::set<std::uint32_t>& want) {
  const auto got = table.machines(FileId{f});
  EXPECT_EQ(table.count(FileId{f}), want.size()) << "file " << f;
  ASSERT_EQ(got.size(), want.size()) << "file " << f;
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "file " << f;
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "file " << f;
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                         [](MachineId a, std::uint32_t b) {
                           return a.raw() == b;
                         }))
      << "file " << f;
}

TEST(FileMachines, MatchesOneStdSetPerFileAtEveryCap) {
  for (const std::uint32_t cap :
       {0u, 1u, 2u, 20u, std::numeric_limits<std::uint32_t>::max()}) {
    SCOPED_TRACE(testing::Message() << "cap " << cap);
    FileMachines table(kInitialFiles);
    std::vector<std::set<std::uint32_t>> ref(kFiles);
    for (const auto& [f, m] : insert_stream(0xF11E5 + cap)) {
      const bool want = reference_insert(ref[f], m, cap);
      ASSERT_EQ(table.insert(FileId{f}, MachineId{m}, cap), want)
          << "file " << f << " machine " << m;
      expect_same_set(table, f, ref[f]);
    }
    EXPECT_EQ(table.size(), kFiles);
    std::size_t by_count[3] = {0, 0, 0};
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      expect_same_set(table, f, ref[f]);
      ++by_count[std::min<std::size_t>(ref[f].size(), 2)];
    }
    // The stream reaches every shape of set the cap allows.
    EXPECT_GT(by_count[0], 0u);
    EXPECT_TRUE(cap < 1 || by_count[1] > 0);
    EXPECT_TRUE(cap < 2 || by_count[2] > 0);
    // An id past the table reads as an empty set.
    EXPECT_EQ(table.count(FileId{kFiles + 100}), 0u);
    EXPECT_TRUE(table.machines(FileId{kFiles + 100}).empty());
  }
}

TEST(FileMachines, SecondMachineSpillsBothInOrder) {
  FileMachines table;
  EXPECT_TRUE(table.insert(FileId{3}, MachineId{9}, 20));
  EXPECT_EQ(table.size(), 4u);  // grew on demand from empty
  ASSERT_EQ(table.machines(FileId{3}).size(), 1u);
  EXPECT_TRUE(table.insert(FileId{3}, MachineId{9}, 20));  // repeat
  EXPECT_TRUE(table.insert(FileId{3}, MachineId{4}, 20));
  EXPECT_TRUE(table.insert(FileId{3}, MachineId{12}, 20));
  const auto set = table.machines(FileId{3});
  const std::vector<MachineId> got(set.begin(), set.end());
  EXPECT_EQ(got, (std::vector<MachineId>{MachineId{4}, MachineId{9},
                                         MachineId{12}}));
}

// Admission per the tracker's rule, and its file counts by a recount.
void check_tracker(std::uint32_t sigma, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "sigma " << sigma);
  PrevalenceTracker tracker(sigma, kInitialFiles);
  const std::uint32_t cap = std::max(sigma, 1u);
  std::vector<std::set<std::uint32_t>> ref(kFiles);
  for (const auto& [f, m] : insert_stream(seed)) {
    ASSERT_EQ(tracker.admit(FileId{f}, MachineId{m}),
              reference_insert(ref[f], m, cap))
        << "file " << f << " machine " << m;
  }
  std::uint64_t tracked = 0, saturated = 0;
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    EXPECT_EQ(tracker.prevalence(FileId{f}), ref[f].size());
    EXPECT_EQ(tracker.saturated(FileId{f}), ref[f].size() >= cap);
    if (!ref[f].empty()) ++tracked;
    if (ref[f].size() >= cap) ++saturated;
  }
  EXPECT_EQ(tracker.tracked_files(), tracked);
  EXPECT_EQ(tracker.saturated_files(), saturated);
}

TEST(FileMachines, TrackerCountsMatchARecount) {
  for (const std::uint32_t sigma : {0u, 1u, 2u, 3u, 20u})
    check_tracker(sigma, 7);
}

TEST(FileMachines, TrackerAtSigmaZeroAndOneAdmitsOnlyTheFirstMachine) {
  for (const std::uint32_t sigma : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "sigma " << sigma);
    PrevalenceTracker tracker(sigma);
    EXPECT_FALSE(tracker.saturated(FileId{0}));
    EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{5}));
    EXPECT_TRUE(tracker.saturated(FileId{0}));
    EXPECT_FALSE(tracker.admit(FileId{0}, MachineId{3}));
    EXPECT_FALSE(tracker.admit(FileId{0}, MachineId{8}));
    EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{5}));  // repeat
    EXPECT_EQ(tracker.prevalence(FileId{0}), 1u);
    EXPECT_TRUE(tracker.admit(FileId{2}, MachineId{3}));
    EXPECT_EQ(tracker.tracked_files(), 2u);
    EXPECT_EQ(tracker.saturated_files(), 2u);
  }
}

TEST(ForEachAhead, PrefetchesEachIndexOnceAheadOfItsBody) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, util::kPrefetchAhead - 1,
        util::kPrefetchAhead, util::kPrefetchAhead + 1, std::size_t{100}}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    std::vector<std::size_t> prefetched, bodies;
    std::vector<std::size_t> prefetched_before(n, 0);
    util::for_each_ahead(
        n, [&](std::size_t i) { prefetched.push_back(i); },
        [&](std::size_t i) {
          prefetched_before[i] = prefetched.size();
          bodies.push_back(i);
        });
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    EXPECT_EQ(prefetched, all);  // each index once, in order, none past n
    EXPECT_EQ(bodies, all);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(prefetched_before[i],
                std::min(n, i + 1 + util::kPrefetchAhead))
          << "index " << i;
  }
}

}  // namespace
}  // namespace longtail::telemetry
