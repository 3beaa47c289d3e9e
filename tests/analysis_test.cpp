// Integration tests for the analysis modules over a generated corpus:
// every table/figure computation must satisfy the structural invariants
// the paper's narrative depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/longtail.hpp"
#include "dataset_fixture.hpp"
#include "telemetry/scan.hpp"

namespace longtail::analysis {
namespace {

const core::LongtailPipeline& pipeline() {
  return test::shared_pipeline(0.04);
}

TEST(Annotate, VerdictsCoverAllEntities) {
  const auto& a = pipeline().annotated();
  EXPECT_EQ(a.labels.file_verdicts.size(), a.corpus->files.size());
  EXPECT_EQ(a.labels.process_verdicts.size(), a.corpus->processes.size());
  EXPECT_EQ(a.file_types.size(), a.corpus->files.size());
  EXPECT_EQ(a.url_verdicts.size(), a.corpus->urls.size());
}

TEST(Annotate, OnlyMaliciousFilesGetTypes) {
  const auto& a = pipeline().annotated();
  for (std::uint32_t f = 0; f < a.corpus->files.size(); ++f) {
    if (a.labels.file_verdicts[f] != model::Verdict::kMalicious) {
      EXPECT_EQ(a.file_types[f], model::MalwareType::kUndefined);
    }
  }
}

TEST(Annotate, TypeStatsAccountForDetectedFiles) {
  const auto& a = pipeline().annotated();
  std::uint64_t malicious = 0;
  for (const auto v : a.labels.file_verdicts)
    malicious += v == model::Verdict::kMalicious;
  EXPECT_EQ(a.file_type_stats.resolved_total() +
                a.file_type_stats.no_leading_label,
            malicious);
}

TEST(MonthlySummary, EventsSumToCorpus) {
  const auto& a = pipeline().annotated();
  const auto summary = monthly_summary(a);
  std::uint64_t events = 0;
  for (const auto& m : summary.months) events += m.events;
  // Overall row includes any spill into August.
  EXPECT_LE(events, summary.overall.events);
  EXPECT_EQ(summary.overall.events, a.corpus->events.size());
}

TEST(MonthlySummary, PercentagesAreSane) {
  const auto summary = monthly_summary(pipeline().annotated());
  for (const auto& m : summary.months) {
    EXPECT_LE(m.file_benign + m.file_likely_benign + m.file_malicious +
                  m.file_likely_malicious,
              100.0);
    EXPECT_LE(m.url_benign + m.url_malicious, 100.0);
  }
}

TEST(Prevalence, CdfsAreComplete) {
  const auto dist = prevalence_distributions(pipeline().annotated());
  EXPECT_DOUBLE_EQ(dist.all.at(1e9), 1.0);
  EXPECT_GT(dist.prevalence_one_fraction, 0.8);
  // The unknown tail is the longest: its mass at prevalence 1 exceeds the
  // labeled classes' (Fig. 2's shape).
  EXPECT_GT(dist.unknown.at(1), dist.benign.at(1));
  EXPECT_GT(dist.unknown.at(1), dist.malicious.at(1));
}

TEST(TypeBreakdown, SumsToHundred) {
  const auto breakdown = type_breakdown(pipeline().annotated());
  double sum = 0;
  for (const auto pct : breakdown) sum += pct;
  EXPECT_NEAR(sum, 100.0, 1e-6);
  // Droppers are the most common defined type (Table II).
  EXPECT_GT(breakdown[static_cast<std::size_t>(model::MalwareType::kDropper)],
            breakdown[static_cast<std::size_t>(model::MalwareType::kBanker)]);
}

TEST(FamilyDistribution, UnresolvedShareNearPaper) {
  const auto families = family_distribution(pipeline().annotated());
  EXPECT_GT(families.total_malicious, 0u);
  // Paper: 58% unresolved.
  EXPECT_NEAR(families.unresolved_fraction(), 0.58, 0.12);
  EXPECT_LE(families.top.size(), 25u);
  // Top list is sorted descending.
  for (std::size_t i = 1; i < families.top.size(); ++i)
    EXPECT_GE(families.top[i - 1].second, families.top[i].second);
}

TEST(Domains, PopularityListsAreRankedAndNamed) {
  const auto pop = domain_popularity(pipeline().annotated());
  ASSERT_FALSE(pop.overall.empty());
  for (std::size_t i = 1; i < pop.overall.size(); ++i)
    EXPECT_GE(pop.overall[i - 1].second, pop.overall[i].second);
  // The overall head should be a curated hosting domain at this scale.
  EXPECT_FALSE(pop.overall.front().first.empty());
}

TEST(Domains, MixedHostingAppearsInBothColumns) {
  // Table IV's observation: hosting services serve benign AND malicious.
  const auto counts = files_per_domain(pipeline().annotated());
  EXPECT_GT(counts.overlap_in_top, 0u);
}

TEST(Domains, UnknownTopDomainsNonEmpty) {
  const auto top = top_unknown_domains(pipeline().annotated());
  ASSERT_FALSE(top.empty());
  EXPECT_GT(top.front().second, top.back().second);
}

TEST(Domains, AlexaDistributionsDiffer) {
  const auto& a = pipeline().annotated();
  const auto benign = alexa_of_domains_hosting(a, model::Verdict::kBenign);
  const auto malicious =
      alexa_of_domains_hosting(a, model::Verdict::kMalicious);
  EXPECT_GT(benign.domains, 0u);
  EXPECT_GT(malicious.domains, 0u);
  // Malicious hosting uses more unranked (dedicated) domains.
  EXPECT_GT(malicious.unranked_fraction, benign.unranked_fraction);
}

// Naive distinct counting for the domain tables: one std::set of members
// per domain, filled by a serial pass over every event, ranked by count
// and then by domain id (TopK's tie-break).
using NaiveSets = std::map<std::uint32_t, std::set<std::uint32_t>>;

std::vector<DomainCount> naive_rank(const AnnotatedCorpus& a,
                                    const NaiveSets& sets,
                                    std::size_t top_k) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked;
  for (const auto& [domain, members] : sets)
    ranked.emplace_back(domain, members.size());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second > y.second : x.first < y.first;
  });
  if (ranked.size() > top_k) ranked.resize(top_k);
  std::vector<DomainCount> out;
  for (const auto& [domain, count] : ranked)
    out.emplace_back(a.corpus->domain_names.at(domain), count);
  return out;
}

TEST(DomainTables, MatchNaiveSetCountsAcrossScanShards) {
  const auto& a = pipeline().annotated();
  const auto& corpus = *a.corpus;
  // The kernels' shard keys only meet in the finisher when the scan
  // splits.
  ASSERT_GE(telemetry::scan_shard_count(corpus.events.size()), 2u);

  NaiveSets overall, benign_machines, malicious_machines;
  NaiveSets benign_files, malicious_files;
  std::array<NaiveSets, model::kNumMalwareTypes> per_type;
  std::map<model::Verdict, std::set<std::uint32_t>> hosting;
  for (std::size_t i = 0; i < corpus.events.size(); ++i) {
    const auto e = corpus.events[i];
    const auto domain = corpus.urls[e.url().raw()].domain.raw();
    const auto machine = e.machine().raw();
    const auto file = e.file().raw();
    const auto verdict = a.verdict(e.file());
    overall[domain].insert(machine);
    hosting[verdict].insert(domain);
    if (verdict == model::Verdict::kBenign) {
      benign_machines[domain].insert(machine);
      benign_files[domain].insert(file);
    } else if (verdict == model::Verdict::kMalicious) {
      malicious_machines[domain].insert(machine);
      malicious_files[domain].insert(file);
      const auto type = static_cast<std::size_t>(a.type_of(e.file()));
      per_type[type][domain].insert(file);
    }
  }

  for (const std::size_t top_k : {std::size_t{10}, corpus.num_domains()}) {
    SCOPED_TRACE(top_k);
    const auto pop = domain_popularity(a, top_k);
    EXPECT_EQ(pop.overall, naive_rank(a, overall, top_k));
    EXPECT_EQ(pop.benign, naive_rank(a, benign_machines, top_k));
    EXPECT_EQ(pop.malicious, naive_rank(a, malicious_machines, top_k));

    const auto files = files_per_domain(a, top_k);
    EXPECT_EQ(files.benign, naive_rank(a, benign_files, top_k));
    EXPECT_EQ(files.malicious, naive_rank(a, malicious_files, top_k));

    const auto types = domains_per_type(a, top_k);
    for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
      EXPECT_EQ(types[t], naive_rank(a, per_type[t], top_k)) << t;
  }

  for (const auto verdict :
       {model::Verdict::kBenign, model::Verdict::kMalicious,
        model::Verdict::kUnknown}) {
    const auto& domains = hosting[verdict];
    util::EmpiricalCdf ranks;
    std::uint64_t unranked = 0;
    for (const auto d : domains) {
      const auto rank = corpus.domains[d].alexa_rank;
      if (rank == 0)
        ++unranked;
      else
        ranks.add(static_cast<double>(rank));
    }
    ranks.finalize();
    const auto got = alexa_of_domains_hosting(a, verdict);
    EXPECT_EQ(got.domains, domains.size());
    EXPECT_EQ(got.ranks, ranks);
    EXPECT_DOUBLE_EQ(got.unranked_fraction,
                     static_cast<double>(unranked) /
                         static_cast<double>(domains.size()));
  }
}

TEST(Signers, SigningRatesFollowPaperShape) {
  const auto rates = signing_rates(pipeline().annotated());
  const auto t = [&](model::MalwareType type) {
    return rates.per_type[static_cast<std::size_t>(type)];
  };
  // Droppers/PUPs heavily signed; bots/bankers rarely (Table VI).
  EXPECT_GT(t(model::MalwareType::kDropper).signed_pct, 60.0);
  EXPECT_LT(t(model::MalwareType::kBot).signed_pct, 25.0);
  // Few bankers at test scale.
  EXPECT_LT(t(model::MalwareType::kBanker).signed_pct, 25.0);
  // Malicious files signed more than benign overall.
  EXPECT_GT(rates.malicious.signed_pct, rates.benign.signed_pct);
  // Browser-delivered more often signed (row-by-row comparison).
  EXPECT_GT(t(model::MalwareType::kDropper).browser_signed_pct,
            t(model::MalwareType::kDropper).signed_pct - 1.0);
}

TEST(Signers, OverlapIsPartial) {
  const auto overlap = signer_overlap(pipeline().annotated());
  EXPECT_GT(overlap.total.signers, 0u);
  EXPECT_GT(overlap.total.common_with_benign, 0u);
  EXPECT_LT(overlap.total.common_with_benign, overlap.total.signers);
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    EXPECT_LE(overlap.per_type[t].common_with_benign,
              overlap.per_type[t].signers);
}

TEST(Signers, TopListsAreConsistent) {
  const auto top = top_signers(pipeline().annotated());
  EXPECT_FALSE(top.malicious_total.top.empty());
  EXPECT_FALSE(top.top_malicious_exclusive.empty());
  EXPECT_FALSE(top.top_benign_exclusive.empty());
}

TEST(Signers, CommonSignersHaveBothCounts) {
  const auto points = common_signers(pipeline().annotated());
  for (const auto& p : points) {
    EXPECT_GT(p.benign_files, 0u);
    EXPECT_GT(p.malicious_files, 0u);
  }
}

TEST(Packers, RatesAndOverlapNearPaper) {
  const auto stats = packer_stats(pipeline().annotated());
  EXPECT_NEAR(stats.benign_packed_pct, 54.0, 8.0);
  EXPECT_NEAR(stats.malicious_packed_pct, 58.0, 8.0);
  EXPECT_GT(stats.shared_packers, 0u);
  EXPECT_LT(stats.shared_packers, stats.distinct_packers);
}

TEST(Processes, BrowsersDominateDownloads) {
  const auto rows = benign_process_behavior(pipeline().annotated());
  const auto& browsers =
      rows[static_cast<std::size_t>(model::ProcessCategory::kBrowser)];
  const auto& acrobat =
      rows[static_cast<std::size_t>(model::ProcessCategory::kAcrobatReader)];
  EXPECT_GT(browsers.unknown_files, acrobat.unknown_files);
  EXPECT_GT(browsers.machines, acrobat.machines);
  // Acrobat downloads are overwhelmingly malicious (Table X).
  EXPECT_GT(acrobat.malicious_files, acrobat.benign_files);
  EXPECT_GT(acrobat.infected_machines_pct,
            browsers.infected_machines_pct);
}

TEST(Processes, BrowserRowsCoverAllKinds) {
  const auto rows = browser_behavior(pipeline().annotated());
  for (std::size_t b = 0; b < model::kNumBrowserKinds; ++b)
    EXPECT_GT(rows[b].machines, 0u) << b;
  // Chrome users get infected more than IE users (Table XI).
  const auto& chrome =
      rows[static_cast<std::size_t>(model::BrowserKind::kChrome)];
  const auto& ie = rows[static_cast<std::size_t>(
      model::BrowserKind::kInternetExplorer)];
  EXPECT_GT(chrome.infected_machines_pct, ie.infected_machines_pct);
}

TEST(Processes, UnknownDownloadsTotalsConsistent) {
  const auto& a = pipeline().annotated();
  const auto unknowns = unknown_downloads_by_category(a);
  const auto rows = benign_process_behavior(a);
  for (std::size_t c = 0; c < model::kNumProcessCategories; ++c)
    EXPECT_EQ(unknowns.by_category[c], rows[c].unknown_files);
}

TEST(MalProc, SameTypeDominatesDownloads) {
  const auto behavior = malicious_process_behavior(pipeline().annotated());
  // Table XII: each malicious process type mostly downloads its own kind;
  // check the heavyweight rows that have enough mass at test scale.
  for (const auto type :
       {model::MalwareType::kAdware, model::MalwareType::kPup}) {
    const auto& row = behavior.per_type[static_cast<std::size_t>(type)];
    if (row.malicious_files < 50) continue;
    double max_other = 0;
    for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
      if (t == static_cast<std::size_t>(model::MalwareType::kAdware) ||
          t == static_cast<std::size_t>(type))
        continue;
      max_other = std::max(max_other, row.type_pct[t]);
    }
    // adware/pup processes mostly deliver adware (their revenue payload).
    EXPECT_GT(row.type_pct[static_cast<std::size_t>(
                  model::MalwareType::kAdware)] +
                  row.type_pct[static_cast<std::size_t>(type)],
              max_other);
  }
}

TEST(Transitions, OrderingMatchesPaper) {
  const auto curves = transition_analysis(pipeline().annotated());
  // dropper > pup/adware >> benign at day 5 (Fig. 5).
  EXPECT_GT(curves.dropper.at_day(5), curves.adware.at_day(5));
  EXPECT_GT(curves.adware.at_day(5), curves.benign.at_day(5));
  EXPECT_GT(curves.pup.at_day(5), curves.benign.at_day(5));
  // CDFs are monotone.
  for (std::size_t d = 1; d < curves.dropper.cdf_by_day.size(); ++d)
    EXPECT_GE(curves.dropper.cdf_by_day[d], curves.dropper.cdf_by_day[d - 1]);
}

TEST(Transitions, CountsAreConsistent) {
  const auto curves = transition_analysis(pipeline().annotated());
  for (const auto* c : {&curves.benign, &curves.adware, &curves.pup,
                        &curves.dropper}) {
    EXPECT_LE(c->transitioned, c->initiator_machines);
    EXPECT_LE(c->cdf_by_day.back(), 1.0);
  }
}

TEST(MachineCoverage, UnknownTouchesMostMachines) {
  const auto coverage = machine_coverage(pipeline().annotated());
  EXPECT_GT(coverage.active_machines, 0u);
  // The paper's headline band: ~69% of machines saw an unknown file.
  EXPECT_GT(coverage.pct(model::Verdict::kUnknown), 60.0);
  EXPECT_LT(coverage.pct(model::Verdict::kUnknown), 85.0);
  // Every per-class count is bounded by the active population.
  for (std::size_t v = 0; v < model::kNumVerdicts; ++v)
    EXPECT_LE(coverage.machines[v], coverage.active_machines);
}

TEST(MachineCoverage, UnknownExceedsLabeledClasses) {
  const auto coverage = machine_coverage(pipeline().annotated());
  EXPECT_GT(coverage.machines[static_cast<std::size_t>(
                model::Verdict::kUnknown)],
            coverage.machines[static_cast<std::size_t>(
                model::Verdict::kBenign)]);
}

}  // namespace
}  // namespace longtail::analysis
