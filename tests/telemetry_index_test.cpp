#include "telemetry/index.hpp"

#include <gtest/gtest.h>

namespace longtail::telemetry {
namespace {

using model::DownloadEvent;
using model::FileId;
using model::MachineId;
using model::Month;
using model::ProcessId;
using model::UrlId;

Corpus tiny_corpus() {
  Corpus c;
  c.machine_count = 4;
  c.files.resize(3);
  c.processes.resize(1);
  c.urls.resize(1);
  c.urls[0].domain = model::DomainId{0};
  c.domains.resize(1);
  auto ev = [](std::uint32_t f, std::uint32_t m, model::Timestamp t) {
    return DownloadEvent{FileId{f}, MachineId{m}, ProcessId{0}, UrlId{0}, t};
  };
  // File 0: two machines; file 1: one machine twice; file 2: unseen.
  c.events = {
      ev(0, 0, 100),
      ev(1, 1, 200),
      ev(1, 1, model::month_begin(Month::kFebruary) + 50),
      ev(0, 2, model::month_begin(Month::kMarch) + 10),
  };
  return c;
}

TEST(CorpusIndex, PrevalenceCountsDistinctMachines) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  EXPECT_EQ(idx.prevalence(FileId{0}), 2u);
  EXPECT_EQ(idx.prevalence(FileId{1}), 1u);
  EXPECT_EQ(idx.prevalence(FileId{2}), 0u);
}

TEST(CorpusIndex, ReachKeepsSortedMachinesAndBrowserFlag) {
  Corpus c = tiny_corpus();
  c.processes.resize(2);
  c.processes[1].category = model::ProcessCategory::kBrowser;
  // Machine 1 lands between file 0's machines 0 and 2.
  const DownloadEvent via_browser{FileId{0}, MachineId{1}, ProcessId{1},
                                  UrlId{0}, model::month_begin(Month::kApril)};
  c.events.push_back(via_browser);
  const CorpusIndex idx(c);
  const auto machines = idx.reach().machines(FileId{0});
  ASSERT_EQ(machines.size(), 3u);
  EXPECT_EQ(machines[0], (MachineId{0}));
  EXPECT_EQ(machines[1], (MachineId{1}));
  EXPECT_EQ(machines[2], (MachineId{2}));
  EXPECT_TRUE(idx.reach().via_browser(FileId{0}));
  EXPECT_FALSE(idx.reach().via_browser(FileId{1}));
}

TEST(CorpusIndex, FirstLastSeen) {
  // First-seen is a file's earliest event; its later events (file 0's
  // March download, file 1's February one) do not move it.
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  EXPECT_EQ(idx.first_seen(FileId{0}), 100);
  EXPECT_EQ(idx.first_seen(FileId{1}), 200);
}

TEST(CorpusIndex, ObservedFilesExcludesUnseen) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  const auto& observed = idx.observed_files();
  EXPECT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], (FileId{0}));
  EXPECT_EQ(observed[1], (FileId{1}));
}

TEST(CorpusIndex, MachineEventsAreTimeSorted) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  const auto events = idx.machine_events(MachineId{1});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(c.events[events[0]].time(), c.events[events[1]].time());
}

TEST(CorpusIndex, MachineWithNoEvents) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  EXPECT_TRUE(idx.machine_events(MachineId{3}).empty());
  EXPECT_EQ(idx.num_active_machines(), 3u);
}

TEST(CorpusIndex, MonthRangesPartitionEvents) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  const auto [jb, je] = idx.month_range(Month::kJanuary);
  EXPECT_EQ(je - jb, 2u);
  const auto [fb, fe] = idx.month_range(Month::kFebruary);
  EXPECT_EQ(fe - fb, 1u);
  const auto [mb, me] = idx.month_range(Month::kMarch);
  EXPECT_EQ(me - mb, 1u);
  const auto [ab, ae] = idx.month_range(Month::kAugust);
  EXPECT_EQ(ae - ab, 0u);
}

}  // namespace
}  // namespace longtail::telemetry
