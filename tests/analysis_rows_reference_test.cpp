// Differential tests of the §V process rows, the signer counters and the
// Polonium baseline against the code they replaced.
//
// `reference::` keeps the direct implementations: one RowAccumulator of
// hash sets per table row, fed by a scan that names every event's
// process, and merged across scan shards by replaying the malicious files
// each shard counted; three signer sets beside the per-signer counters;
// and Polonium's file -> machines lists, built by a corpus scan and
// deduplicated per call in first-occurrence order. The row counter, the
// counters alone and the corpus index's machine lists must agree with
// them on every field, on generated worlds at 1, 2 and 8 threads and on
// a hand-built corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "analysis/malproc.hpp"
#include "analysis/processes.hpp"
#include "analysis/procname.hpp"
#include "analysis/signers.hpp"
#include "baselines/reputation.hpp"
#include "dataset_fixture.hpp"
#include "groundtruth/vt.hpp"
#include "telemetry/scan.hpp"
#include "util/flat_table.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace longtail {
namespace {

using analysis::AnnotatedCorpus;
using analysis::ProcessBehaviorRow;
using baselines::evaluate_baseline;
using model::MalwareType;
using model::ProcessCategory;
using model::Verdict;

namespace reference {

struct RowAccumulator {
  std::unordered_set<std::uint32_t> processes, machines, infected;
  std::unordered_set<std::uint32_t> unknown_files, benign_files,
      malicious_files;
  std::array<std::uint64_t, model::kNumMalwareTypes> type_file_counts{};
  std::unordered_set<std::uint32_t> counted_malicious;

  void add(const AnnotatedCorpus& a, const telemetry::EventStore::EventRef& e) {
    processes.insert(e.process().raw());
    machines.insert(e.machine().raw());
    switch (a.verdict(e.file())) {
      case Verdict::kUnknown:
        unknown_files.insert(e.file().raw());
        break;
      case Verdict::kBenign:
        benign_files.insert(e.file().raw());
        break;
      case Verdict::kMalicious:
        malicious_files.insert(e.file().raw());
        infected.insert(e.machine().raw());
        if (counted_malicious.insert(e.file().raw()).second)
          ++type_file_counts[static_cast<std::size_t>(a.type_of(e.file()))];
        break;
      default:
        break;
    }
  }

  void merge(const AnnotatedCorpus& a, RowAccumulator&& o) {
    processes.merge(o.processes);
    machines.merge(o.machines);
    infected.merge(o.infected);
    unknown_files.merge(o.unknown_files);
    benign_files.merge(o.benign_files);
    malicious_files.merge(o.malicious_files);
    for (const auto f : o.counted_malicious)
      if (counted_malicious.insert(f).second)
        ++type_file_counts[static_cast<std::size_t>(
            a.type_of(model::FileId{f}))];
  }

  [[nodiscard]] ProcessBehaviorRow finish() const {
    ProcessBehaviorRow row;
    row.processes = processes.size();
    row.machines = machines.size();
    row.unknown_files = unknown_files.size();
    row.benign_files = benign_files.size();
    row.malicious_files = malicious_files.size();
    row.infected_machines_pct = util::percent(infected.size(), machines.size());
    std::uint64_t mal_total = 0;
    for (const auto c : type_file_counts) mal_total += c;
    for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
      row.type_pct[t] = util::percent(type_file_counts[t], mal_total);
    return row;
  }
};

// One scan over the corpus; row_of(e) names the event's row, or -1.
template <std::size_t N, typename RowOf>
std::array<ProcessBehaviorRow, N> rows(const AnnotatedCorpus& a, RowOf row_of) {
  using Acc = std::array<RowAccumulator, N>;
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        if (const int r = row_of(e); r >= 0)
          s[static_cast<std::size_t>(r)].add(a, e);
      },
      [&](Acc& total, Acc&& shard) {
        for (std::size_t i = 0; i < N; ++i)
          total[i].merge(a, std::move(shard[i]));
      });
  std::array<ProcessBehaviorRow, N> out;
  for (std::size_t i = 0; i < N; ++i) out[i] = acc[i].finish();
  return out;
}

analysis::NameCategory named(const AnnotatedCorpus& a, model::ProcessId p) {
  return analysis::categorize_by_name(a.corpus->process_name(p));
}

std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a) {
  return rows<model::kNumProcessCategories>(a, [&](const auto& e) {
    if (a.verdict(e.process()) != Verdict::kBenign) return -1;
    return static_cast<int>(named(a, e.process()).category);
  });
}

std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a) {
  return rows<model::kNumBrowserKinds>(a, [&](const auto& e) {
    if (a.verdict(e.process()) != Verdict::kBenign) return -1;
    const auto name = named(a, e.process());
    if (name.category != model::ProcessCategory::kBrowser) return -1;
    return static_cast<int>(name.browser);
  });
}

analysis::MalProcBehavior malicious_process_behavior(const AnnotatedCorpus& a) {
  struct Tables {
    std::array<RowAccumulator, model::kNumMalwareTypes> per_type;
    RowAccumulator overall;
  };
  const auto [per_type, overall] = telemetry::scan_reduce(
      *a.corpus, [] { return Tables{}; },
      [&](Tables& s, const auto& e) {
        if (a.verdict(e.process()) != Verdict::kMalicious) return;
        const auto t = static_cast<std::size_t>(a.type_of(e.process()));
        s.per_type[t].add(a, e);
        s.overall.add(a, e);
      },
      [&](Tables& total, Tables&& shard) {
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
          total.per_type[t].merge(a, std::move(shard.per_type[t]));
        total.overall.merge(a, std::move(shard.overall));
      });
  analysis::MalProcBehavior out;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    out.per_type[t] = per_type[t].finish();
  out.overall = overall.finish();
  return out;
}

analysis::UnknownDownloads unknown_downloads_by_category(
    const AnnotatedCorpus& a) {
  using FileSets =
      std::array<std::unordered_set<std::uint32_t>,
                 model::kNumProcessCategories>;
  const FileSets files = telemetry::scan_reduce(
      *a.corpus, [] { return FileSets{}; },
      [&](FileSets& s, const auto& e) {
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        if (a.verdict(e.file()) != Verdict::kUnknown) return;
        const auto c = named(a, e.process()).category;
        s[static_cast<std::size_t>(c)].insert(e.file().raw());
      },
      [](FileSets& total, FileSets&& shard) {
        for (std::size_t c = 0; c < shard.size(); ++c)
          total[c].merge(shard[c]);
      });
  analysis::UnknownDownloads out;
  for (std::size_t c = 0; c < files.size(); ++c) {
    out.by_category[c] = files[c].size();
    out.total += files[c].size();
  }
  return out;
}

struct SignerSets {
  std::unordered_set<std::uint32_t> benign_signers;
  std::array<std::unordered_set<std::uint32_t>, model::kNumMalwareTypes>
      type_signers;
  std::unordered_set<std::uint32_t> malicious_signers;
  util::TopK<std::uint32_t> benign_counts, malicious_counts;
  std::array<util::TopK<std::uint32_t>, model::kNumMalwareTypes> type_counts;
};

SignerSets collect_signers(const AnnotatedCorpus& a) {
  const auto& observed = a.index.observed_files();
  return telemetry::scan_reduce_indexed(
      observed.size(), [] { return SignerSets{}; },
      [&](SignerSets& s, std::size_t i) {
        const auto f = observed[i];
        const auto& meta = a.corpus->files[f.raw()];
        if (!meta.is_signed) return;
        const auto signer = meta.signer.raw();
        switch (a.verdict(f)) {
          case Verdict::kBenign:
            s.benign_signers.insert(signer);
            s.benign_counts.add(signer);
            break;
          case Verdict::kMalicious: {
            const auto t = static_cast<std::size_t>(a.type_of(f));
            s.type_signers[t].insert(signer);
            s.malicious_signers.insert(signer);
            s.malicious_counts.add(signer);
            s.type_counts[t].add(signer);
            break;
          }
          default:
            break;
        }
      },
      [](SignerSets& total, SignerSets&& shard) {
        total.benign_signers.merge(shard.benign_signers);
        total.malicious_signers.merge(shard.malicious_signers);
        total.benign_counts.merge(shard.benign_counts);
        total.malicious_counts.merge(shard.malicious_counts);
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
          total.type_signers[t].merge(shard.type_signers[t]);
          total.type_counts[t].merge(shard.type_counts[t]);
        }
      });
}

analysis::SignerOverlap signer_overlap(const AnnotatedCorpus& a) {
  const SignerSets s = collect_signers(a);
  analysis::SignerOverlap out;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
    out.per_type[t].signers = s.type_signers[t].size();
    for (const auto signer : s.type_signers[t])
      if (s.benign_signers.contains(signer))
        ++out.per_type[t].common_with_benign;
  }
  out.total.signers = s.malicious_signers.size();
  for (const auto signer : s.malicious_signers)
    if (s.benign_signers.contains(signer)) ++out.total.common_with_benign;
  return out;
}

analysis::TopSigners top_signers(const AnnotatedCorpus& a) {
  constexpr std::size_t top_k = 3, table9_k = 10;
  const SignerSets s = collect_signers(a);
  analysis::TopSigners out;
  auto split_top = [&](const util::TopK<std::uint32_t>& counts,
                       analysis::TopSigners::Row& row) {
    std::size_t want = std::max<std::size_t>(top_k * 8, 24);
    for (const auto& [signer, count] : counts.top(want)) {
      const auto name = a.corpus->signer_names.at(signer);
      if (row.top.size() < top_k) row.top.emplace_back(name, count);
      if (s.benign_signers.contains(signer)) {
        if (row.top_common.size() < top_k)
          row.top_common.emplace_back(name, count);
      } else if (row.top_exclusive.size() < top_k) {
        row.top_exclusive.emplace_back(name, count);
      }
    }
  };
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    split_top(s.type_counts[t], out.per_type[t]);
  split_top(s.malicious_counts, out.malicious_total);

  for (const auto& [signer, count] :
       s.benign_counts.top(s.benign_counts.distinct())) {
    if (out.top_benign_exclusive.size() >= table9_k) break;
    if (!s.malicious_signers.contains(signer))
      out.top_benign_exclusive.emplace_back(a.corpus->signer_names.at(signer),
                                            count);
  }
  for (const auto& [signer, count] :
       s.malicious_counts.top(s.malicious_counts.distinct())) {
    if (out.top_malicious_exclusive.size() >= table9_k) break;
    if (!s.benign_signers.contains(signer))
      out.top_malicious_exclusive.emplace_back(
          a.corpus->signer_names.at(signer), count);
  }
  return out;
}

std::vector<analysis::CommonSignerPoint> common_signers(
    const AnnotatedCorpus& a) {
  constexpr std::size_t top_k = 20;
  const SignerSets s = collect_signers(a);
  util::TopK<std::uint32_t> total;
  for (const auto signer : s.malicious_signers) {
    if (!s.benign_signers.contains(signer)) continue;
    total.add(signer, s.benign_counts.count(signer) +
                          s.malicious_counts.count(signer));
  }
  std::vector<analysis::CommonSignerPoint> out;
  for (const auto& [signer, count] : total.top(top_k))
    out.push_back({a.corpus->signer_names.at(signer),
                   s.benign_counts.count(signer),
                   s.malicious_counts.count(signer)});
  return out;
}

class PrevalenceReputation {
 public:
  PrevalenceReputation(const AnnotatedCorpus& a, model::Timestamp train_end) {
    struct MachineCounts {
      std::uint32_t benign = 0, malicious = 0;
    };
    using CountMap = util::FlatMap<std::uint32_t, MachineCounts>;
    const auto train_n = telemetry::lower_bound_time(*a.corpus, train_end);
    const CountMap counts = telemetry::scan_reduce(
        *a.corpus, 0, train_n, [] { return CountMap{}; },
        [&](CountMap& m, const auto& e) {
          const auto v = a.verdict(e.file());
          if (v == Verdict::kBenign)
            ++m[e.machine().raw()].benign;
          else if (v == Verdict::kMalicious)
            ++m[e.machine().raw()].malicious;
        },
        [](CountMap& total, CountMap&& shard) {
          for (const auto& [machine, c] : shard) {
            total[machine].benign += c.benign;
            total[machine].malicious += c.malicious;
          }
        });
    for (const auto& [machine, c] : counts)
      machine_risk_[machine] =
          static_cast<float>(c.malicious + 1) /
          static_cast<float>(c.malicious + c.benign + 2);

    using Lists = util::FlatMap<std::uint32_t, std::vector<std::uint32_t>>;
    file_machines_ = telemetry::scan_reduce(
        *a.corpus, [] { return Lists{}; },
        [](Lists& m, const auto& e) {
          m[e.file().raw()].push_back(e.machine().raw());
        },
        [](Lists& total, Lists&& shard) {
          for (auto& [key, vec] : shard) {
            auto [merged, inserted] = total.try_emplace(key, std::move(vec));
            if (!inserted)
              merged->insert(merged->end(), vec.begin(), vec.end());
          }
        });
  }

  [[nodiscard]] baselines::BaselineVerdict classify(
      const AnnotatedCorpus& /*a*/, model::FileId file) const {
    using baselines::BaselineVerdict;
    util::FlatSet<std::uint32_t> machines;
    const auto* events = file_machines_.find(file.raw());
    if (events == nullptr) return BaselineVerdict::kAbstain;
    for (const auto m : *events) machines.insert(m);
    if (machines.size() < config_.min_prevalence)
      return BaselineVerdict::kAbstain;
    double risk_sum = 0;
    std::uint32_t known = 0;
    for (const auto m : machines) {
      if (const float* risk = machine_risk_.find(m); risk != nullptr) {
        risk_sum += *risk;
        ++known;
      }
    }
    if (known == 0) return BaselineVerdict::kAbstain;
    const double belief = risk_sum / static_cast<double>(known);
    if (belief >= config_.malicious_threshold)
      return BaselineVerdict::kMalicious;
    if (belief <= config_.benign_threshold) return BaselineVerdict::kBenign;
    return BaselineVerdict::kAbstain;
  }

 private:
  baselines::PrevalenceReputationConfig config_;
  util::FlatMap<std::uint32_t, float> machine_risk_;
  util::FlatMap<std::uint32_t, std::vector<std::uint32_t>> file_machines_;
};

}  // namespace reference

template <typename E>
constexpr std::size_t idx(E e) { return static_cast<std::size_t>(e); }

// Every field of a row; counts convert to double exactly.
std::vector<double> fields(const ProcessBehaviorRow& r) {
  std::vector<double> out;
  out.push_back(static_cast<double>(r.processes));
  out.push_back(static_cast<double>(r.machines));
  out.push_back(static_cast<double>(r.unknown_files));
  out.push_back(static_cast<double>(r.benign_files));
  out.push_back(static_cast<double>(r.malicious_files));
  out.push_back(r.infected_machines_pct);
  out.insert(out.end(), r.type_pct.begin(), r.type_pct.end());
  return out;
}

template <std::size_t N>
void expect_rows_eq(const std::array<ProcessBehaviorRow, N>& got,
                    const std::array<ProcessBehaviorRow, N>& want,
                    const std::string& table) {
  for (std::size_t r = 0; r < N; ++r)
    EXPECT_EQ(fields(got[r]), fields(want[r])) << table << " row " << r;
}

using Point = std::tuple<std::string_view, std::uint64_t, std::uint64_t>;

std::vector<Point> points(const std::vector<analysis::CommonSignerPoint>& v) {
  std::vector<Point> out;
  for (const auto& p : v)
    out.emplace_back(p.signer, p.benign_files, p.malicious_files);
  return out;
}

void expect_top_rows_eq(const analysis::TopSigners::Row& got,
                        const analysis::TopSigners::Row& want,
                        const std::string& what) {
  EXPECT_EQ(got.top, want.top) << what;
  EXPECT_EQ(got.top_common, want.top_common) << what;
  EXPECT_EQ(got.top_exclusive, want.top_exclusive) << what;
}

std::vector<std::uint64_t> overlap_fields(const analysis::SignerOverlap& o) {
  std::vector<std::uint64_t> out;
  for (const auto& row : o.per_type) {
    out.push_back(row.signers);
    out.push_back(row.common_with_benign);
  }
  out.push_back(o.total.signers);
  out.push_back(o.total.common_with_benign);
  return out;
}

std::vector<std::uint64_t> eval_fields(const baselines::BaselineEval& e) {
  std::vector<std::uint64_t> out;
  out.push_back(e.decided_malicious);
  out.push_back(e.decided_benign);
  out.push_back(e.abstained);
  out.push_back(e.true_positives);
  out.push_back(e.false_positives);
  return out;
}

// Compares every table against reference:: at 1, 2 and 8 threads.
void expect_tables_match_reference(const AnnotatedCorpus& a) {
  const auto train_end = model::month_begin(model::Month::kMay);
  const auto eval_end = model::month_end(model::Month::kMay);
  struct ThreadGuard {
    ~ThreadGuard() {
      util::set_global_threads(util::ThreadPool::default_threads());
    }
  } guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::set_global_threads(threads);

    const auto benign = analysis::benign_process_behavior(a);
    expect_rows_eq(benign, reference::benign_process_behavior(a), "Table X");
    const auto kinds = analysis::browser_behavior(a);
    expect_rows_eq(kinds, reference::browser_behavior(a), "Table XI");
    const auto mal = analysis::malicious_process_behavior(a);
    const auto mal_ref = reference::malicious_process_behavior(a);
    expect_rows_eq(mal.per_type, mal_ref.per_type, "Table XII");
    EXPECT_EQ(fields(mal.overall), fields(mal_ref.overall))
        << "Table XII overall";
    const auto unknowns = analysis::unknown_downloads_by_category(a);
    const auto unknowns_ref = reference::unknown_downloads_by_category(a);
    EXPECT_EQ(unknowns.by_category, unknowns_ref.by_category);
    EXPECT_EQ(unknowns.total, unknowns_ref.total);

    EXPECT_EQ(overlap_fields(analysis::signer_overlap(a)),
              overlap_fields(reference::signer_overlap(a)));
    const auto top = analysis::top_signers(a);
    const auto top_ref = reference::top_signers(a);
    for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
      expect_top_rows_eq(top.per_type[t], top_ref.per_type[t],
                         "Table VIII type " + std::to_string(t));
    expect_top_rows_eq(top.malicious_total, top_ref.malicious_total,
                       "Table VIII total");
    EXPECT_EQ(top.top_benign_exclusive, top_ref.top_benign_exclusive);
    EXPECT_EQ(top.top_malicious_exclusive, top_ref.top_malicious_exclusive);
    EXPECT_EQ(points(analysis::common_signers(a)),
              points(reference::common_signers(a)));

    const baselines::PrevalenceReputation polonium(a, train_end);
    const reference::PrevalenceReputation polonium_ref(a, train_end);
    const auto got = evaluate_baseline(polonium, a, train_end, eval_end);
    const auto want = evaluate_baseline(polonium_ref, a, train_end, eval_end);
    EXPECT_EQ(eval_fields(got), eval_fields(want));
    std::size_t differ = 0;
    for (const auto f : a.index.observed_files())
      differ += polonium.classify(a, f) != polonium_ref.classify(a, f);
    EXPECT_EQ(differ, 0u) << "files Polonium classifies differently";
  }
}

TEST(RowCounterReference, ScaleTwoPercentWorldMatchesAtEveryThreadCount) {
  const auto& a = test::shared_pipeline(0.02).annotated();
  // Two scan shards, so the reference merges shards.
  ASSERT_EQ(telemetry::scan_shard_count(a.corpus->events.size()), 2u);
  expect_tables_match_reference(a);
}

TEST(RowCounterReference, FivePercentWorldMatchesAtEveryThreadCount) {
  expect_tables_match_reference(test::shared_pipeline(0.05).annotated());
}

// A hand-built corpus:
//   processes: 0 benign chrome.exe, 1 benign svchost.exe, 2 malicious
//              chrome.exe (dropper), 3 malicious updater.exe whose only
//              label is McAfee's generic Artemis (type undefined, row 10)
//   files:     0 unknown, 1 malicious adware, 2 benign
//   machines:  0 gets the adware through the benign browser and a benign
//              file through svchost (infected in the browser row only);
//              1 gets file 0 through svchost, so file 0 has two rows;
//              2 gets files through both malicious processes
struct HandBuilt {
  telemetry::Corpus corpus;
  groundtruth::Whitelist whitelist;
  groundtruth::VtDatabase vt;
  std::unique_ptr<AnnotatedCorpus> annotated;

  HandBuilt() {
    using model::FileId;
    using model::MachineId;
    using model::ProcessId;
    using model::UrlId;
    corpus.machine_count = 3;
    corpus.files.resize(3);
    corpus.processes.resize(4);
    const char* names[] = {"chrome.exe", "svchost.exe", "chrome.exe",
                           "updater.exe"};
    for (std::size_t p = 0; p < 4; ++p)
      corpus.processes[p].name = corpus.process_names.intern(names[p]);
    corpus.domains.resize(1);
    corpus.domain_names.intern("hosting.com");
    corpus.urls.push_back({model::DomainId{0}, 100});

    whitelist.add(FileId{2});
    whitelist.add(ProcessId{0});
    whitelist.add(ProcessId{1});
    auto report = [](std::uint16_t engine, const char* label) {
      groundtruth::VtReport r;
      r.detections.push_back({engine, label});
      return r;
    };
    vt.put(FileId{1}, report(0, "Adware:Win32/Hotbar.a"));
    vt.put(ProcessId{2}, report(2, "TROJ_DLOADR.ABC"));
    vt.put(ProcessId{3}, report(4, "Artemis!1A2B3C4D"));

    auto ev = [](std::uint32_t f, std::uint32_t m, std::uint32_t p,
                 model::Timestamp day) {
      return model::DownloadEvent{FileId{f}, MachineId{m}, ProcessId{p},
                                  UrlId{0}, day * model::kSecondsPerDay};
    };
    corpus.events = {
        ev(0, 0, 0, 1),  // unknown via the browser
        ev(0, 1, 1, 2),  // the same file via svchost
        ev(1, 0, 0, 3),  // adware via the browser: machine 0 infected
        ev(2, 0, 1, 4),  // benign via svchost on machine 0
        ev(1, 2, 2, 5),  // adware via the malicious chrome.exe
        ev(2, 2, 3, 6),  // benign via the undefined-type process
        ev(1, 2, 3, 7),  // adware via the undefined-type process
    };
    annotated = std::make_unique<AnnotatedCorpus>(
        analysis::annotate(corpus, whitelist, vt));
  }
};

TEST(RowCounterReference, HandBuiltCorpusCountsUnionsAndSums) {
  const HandBuilt h;
  const auto& a = *h.annotated;
  ASSERT_EQ(a.verdict(model::ProcessId{2}), Verdict::kMalicious);
  ASSERT_EQ(a.type_of(model::ProcessId{2}), MalwareType::kDropper);
  ASSERT_EQ(a.verdict(model::ProcessId{3}), Verdict::kMalicious);
  ASSERT_EQ(a.type_of(model::ProcessId{3}), MalwareType::kUndefined);
  ASSERT_EQ(a.verdict(model::FileId{0}), Verdict::kUnknown);
  ASSERT_EQ(a.verdict(model::FileId{1}), Verdict::kMalicious);
  ASSERT_EQ(a.verdict(model::FileId{2}), Verdict::kBenign);

  const auto benign = analysis::benign_process_behavior(a);
  expect_rows_eq(benign, reference::benign_process_behavior(a), "Table X");
  const auto& browsers = benign[idx(ProcessCategory::kBrowser)];
  const auto& windows = benign[idx(ProcessCategory::kWindows)];
  // The malicious chrome.exe has no browser row.
  EXPECT_EQ(browsers.processes, 1u);
  EXPECT_EQ(browsers.machines, 1u);
  EXPECT_EQ(browsers.malicious_files, 1u);
  EXPECT_DOUBLE_EQ(browsers.infected_machines_pct, 100.0);
  // Machine 0 is in both rows but infected in the browser row only.
  EXPECT_EQ(windows.machines, 2u);
  EXPECT_EQ(windows.benign_files, 1u);
  EXPECT_EQ(windows.malicious_files, 0u);
  EXPECT_DOUBLE_EQ(windows.infected_machines_pct, 0.0);

  const auto kinds = analysis::browser_behavior(a);
  expect_rows_eq(kinds, reference::browser_behavior(a), "Table XI");
  EXPECT_EQ(kinds[idx(model::BrowserKind::kChrome)].processes, 1u);
  EXPECT_EQ(kinds[idx(model::BrowserKind::kChrome)].machines, 1u);

  const auto mal = analysis::malicious_process_behavior(a);
  const auto mal_ref = reference::malicious_process_behavior(a);
  expect_rows_eq(mal.per_type, mal_ref.per_type, "Table XII");
  EXPECT_EQ(fields(mal.overall), fields(mal_ref.overall));
  const auto& droppers = mal.per_type[idx(MalwareType::kDropper)];
  const auto& undefined = mal.per_type[idx(MalwareType::kUndefined)];
  EXPECT_EQ(undefined.processes, 1u);
  EXPECT_EQ(undefined.benign_files, 1u);
  EXPECT_EQ(undefined.malicious_files, 1u);
  EXPECT_DOUBLE_EQ(undefined.infected_machines_pct, 100.0);
  // Both rows reach machine 2 and the adware; overall is their union.
  EXPECT_EQ(mal.overall.processes, 2u);
  EXPECT_EQ(mal.overall.machines, 1u);
  EXPECT_LT(mal.overall.machines, droppers.machines + undefined.machines);
  EXPECT_EQ(mal.overall.malicious_files, 1u);
  EXPECT_DOUBLE_EQ(mal.overall.type_pct[idx(MalwareType::kAdware)], 100.0);

  // File 0 counts in both categories, and the total sums them.
  const auto unknowns = analysis::unknown_downloads_by_category(a);
  const auto unknowns_ref = reference::unknown_downloads_by_category(a);
  EXPECT_EQ(unknowns.by_category, unknowns_ref.by_category);
  EXPECT_EQ(unknowns.by_category[idx(ProcessCategory::kBrowser)], 1u);
  EXPECT_EQ(unknowns.by_category[idx(ProcessCategory::kWindows)], 1u);
  EXPECT_EQ(unknowns.total, 2u);
  EXPECT_EQ(unknowns.total, unknowns_ref.total);
}

}  // namespace
}  // namespace longtail
