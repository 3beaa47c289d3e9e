// Asserts the seed-stability guarantee of the parallel execution layer:
// the full pipeline — corpus generation, §II labeling/annotation, and the
// §VI rule experiments — produces bit-identical output under
// LONGTAIL_THREADS = 1, 2, and 8.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/domains.hpp"
#include "analysis/monthly.hpp"
#include "analysis/signers.hpp"
#include "bench/table_render.hpp"
#include "core/pipeline.hpp"
#include "synth/dataset_io.hpp"
#include "telemetry/faults.hpp"
#include "tests/temp_dir.hpp"
#include "util/hash.hpp"
#include "util/profile.hpp"
#include "util/thread_pool.hpp"

namespace longtail {
namespace {

constexpr double kScale = 0.02;

// Everything a run observes: the generated dataset fingerprint, Table I
// rows, and Table XVI/XVII numbers for one (train, test) window.
struct RunObservation {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> table1;
  std::uint64_t all_rules = 0;
  std::uint64_t selected = 0;
  std::uint64_t selected_benign = 0;
  std::uint64_t selected_malicious = 0;
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  std::uint64_t rejected = 0, unmatched = 0;
  std::uint64_t fp_rules = 0;
  std::uint64_t exp_mal = 0, exp_ben = 0, exp_rejected = 0, exp_total = 0;

  bool operator==(const RunObservation&) const = default;
};

RunObservation observe(unsigned threads) {
  util::set_global_threads(threads);
  const auto pipeline = core::LongtailPipeline::generate(kScale);

  RunObservation obs;
  obs.fingerprint = core::dataset_fingerprint(pipeline.dataset());

  const auto summary = analysis::monthly_summary(pipeline.annotated());
  for (const auto& row : summary.months) {
    obs.table1.push_back(row.machines);
    obs.table1.push_back(row.events);
    obs.table1.push_back(row.processes);
    obs.table1.push_back(row.files);
    obs.table1.push_back(row.urls);
  }

  const auto exp = pipeline.run_rule_experiment(model::Month::kMarch,
                                                model::Month::kApril);
  obs.all_rules = exp.all_rules.size();
  const auto eval = core::LongtailPipeline::evaluate_tau(exp, 0.001);
  obs.selected = eval.selected.total;
  obs.selected_benign = eval.selected.benign_rules;
  obs.selected_malicious = eval.selected.malicious_rules;
  obs.tp = eval.eval.true_positives;
  obs.fp = eval.eval.false_positives;
  obs.fn = eval.eval.false_negatives;
  obs.tn = eval.eval.true_negatives;
  obs.rejected = eval.eval.rejected;
  obs.unmatched = eval.eval.unmatched;
  obs.fp_rules = eval.eval.fp_rules.size();
  obs.exp_mal = eval.expansion.labeled_malicious;
  obs.exp_ben = eval.expansion.labeled_benign;
  obs.exp_rejected = eval.expansion.rejected;
  obs.exp_total = eval.expansion.total_unknowns;
  return obs;
}

class PipelineDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_global_threads(util::ThreadPool::default_threads());
  }
};

TEST_F(PipelineDeterminismTest, IdenticalAcross1And2And8Threads) {
  const auto serial = observe(1);
  ASSERT_NE(serial.fingerprint, 0u);
  ASSERT_GT(serial.all_rules, 0u);

  const auto two = observe(2);
  EXPECT_EQ(two, serial) << "2-thread run diverged from serial";

  const auto eight = observe(8);
  EXPECT_EQ(eight, serial) << "8-thread run diverged from serial";
}

TEST_F(PipelineDeterminismTest, RerunIsIdentical) {
  // Same seed, same thread count, fresh pipeline objects: nothing in
  // the process (allocator addresses, pool scheduling, metric state)
  // may leak into the output.
  const auto first = observe(4);
  const auto second = observe(4);
  EXPECT_EQ(second, first) << "rerun diverged under identical settings";
}

TEST_F(PipelineDeterminismTest, FaultedPipelineIsThreadCountInvariant) {
  // The degraded-transport path exercises the same parallel resolution
  // phases plus the lossy delivery layer; it must be just as
  // thread-count-invariant as the clean path.
  auto profile = synth::paper_calibration(kScale);
  const auto moderate = telemetry::named_fault_profile("moderate");
  ASSERT_TRUE(moderate.has_value());
  profile.faults = *moderate;

  std::uint64_t baseline = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    const core::LongtailPipeline pipeline(profile);
    const auto fp = core::dataset_fingerprint(pipeline.dataset());
    ASSERT_NE(fp, 0u);
    if (baseline == 0)
      baseline = fp;
    else
      EXPECT_EQ(fp, baseline) << "threads=" << threads;
  }
}

TEST_F(PipelineDeterminismTest, ParallelExperimentFanOutMatchesSerialCalls) {
  util::set_global_threads(4);
  const auto pipeline = core::LongtailPipeline::generate(kScale);
  const std::vector<std::pair<model::Month, model::Month>> windows = {
      {model::Month::kJanuary, model::Month::kFebruary},
      {model::Month::kFebruary, model::Month::kMarch},
      {model::Month::kMarch, model::Month::kApril},
  };
  const auto fanout = pipeline.run_rule_experiments(windows);
  ASSERT_EQ(fanout.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto serial =
        pipeline.run_rule_experiment(windows[i].first, windows[i].second);
    EXPECT_EQ(fanout[i].train_month, windows[i].first);
    ASSERT_EQ(fanout[i].all_rules.size(), serial.all_rules.size()) << i;
    EXPECT_EQ(fanout[i].data.train.size(), serial.data.train.size()) << i;
    EXPECT_EQ(fanout[i].data.test.size(), serial.data.test.size()) << i;
    EXPECT_EQ(fanout[i].data.unknowns.size(), serial.data.unknowns.size())
        << i;
    for (std::size_t r = 0; r < serial.all_rules.size(); ++r) {
      EXPECT_EQ(fanout[i].all_rules[r].predict_malicious,
                serial.all_rules[r].predict_malicious);
      EXPECT_EQ(fanout[i].all_rules[r].conditions.size(),
                serial.all_rules[r].conditions.size());
    }
  }
}

TEST_F(PipelineDeterminismTest, ProfilingDoesNotPerturbOutput) {
  // The profiler reads clocks and /proc only; with it on, every observed
  // number must stay bit-identical to the unprofiled run at every
  // canonical thread count. (CI additionally diffs whole table stdout
  // with LONGTAIL_PROFILE=1 against the unprofiled reference.)
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::profile::set_enabled(false);
    const auto plain = observe(threads);
    util::profile::set_enabled(true);
    const auto profiled = observe(threads);
    util::profile::set_enabled(false);
    EXPECT_EQ(profiled, plain)
        << "LONGTAIL_PROFILE changed pipeline output at threads=" << threads;
  }
}

TEST_F(PipelineDeterminismTest, TauSweepMatchesPointEvaluations) {
  util::set_global_threads(4);
  const auto pipeline = core::LongtailPipeline::generate(kScale);
  const auto exp = pipeline.run_rule_experiment(model::Month::kMarch,
                                                model::Month::kApril);
  const std::vector<double> taus = {0.0, 0.001, 0.005, 0.01};
  const auto sweep = core::LongtailPipeline::evaluate_taus(exp, taus);
  ASSERT_EQ(sweep.size(), taus.size());
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const auto point = core::LongtailPipeline::evaluate_tau(exp, taus[i]);
    EXPECT_EQ(sweep[i].selected.total, point.selected.total) << taus[i];
    EXPECT_EQ(sweep[i].eval.true_positives, point.eval.true_positives);
    EXPECT_EQ(sweep[i].eval.false_positives, point.eval.false_positives);
    EXPECT_EQ(sweep[i].expansion.labeled_malicious,
              point.expansion.labeled_malicious);
  }
}

// ---------------------------------------------------------------------
// Migration-equivalence gate. The four constants below were captured
// from the build immediately BEFORE the std::unordered_map ->
// util::FlatMap/FlatSet migration of the hot lookup paths (prevalence
// tracking, retransmit dedup, whitelist/reputation, interner, chain
// fixup): the scale-0.02 dataset fingerprint (clean and under
// LONGTAIL_FAULTS=moderate) and the FNV-1a hashes of the Table I /
// Table VI bodies (bench/table_render.hpp — the exact bytes
// table01_monthly / table06_signed print). Any container change that
// perturbs output — iteration order leaking into a result, a dropped or
// duplicated key — trips one of these pins. Update them only with a
// paired capture from the commit being replaced, never to "make the
// test pass".
constexpr std::uint64_t kPinnedCleanFingerprint = 0x6E0683FF56A1395CULL;
constexpr std::uint64_t kPinnedModerateFingerprint = 0x3C41B26DEE91C5E0ULL;
constexpr std::uint64_t kPinnedTable01BodyHash = 0x0841637FB99B63F5ULL;
constexpr std::uint64_t kPinnedTable06BodyHash = 0xD8804855D807AD04ULL;

// The second pin set was captured from the build immediately BEFORE the
// flat distinct-count kernel replaced the map-of-sets accumulators in
// analysis/domains.cpp and the one-pass tokenizer replaced AVclass's
// per-token strings: FNV digests of the annotation (per-file types and
// family names, per-process types, the AVType resolution tally) and of
// the full Table III / IV / V results, every domain ranked
// (top_k = number of domains), so no tie at a cut-off can hide a change.
constexpr std::uint64_t kPinnedFileTypesHash = 0xD3448C7EB92E6467ULL;
constexpr std::uint64_t kPinnedProcessTypesHash = 0xC08EF4B547F5001AULL;
constexpr std::uint64_t kPinnedFileFamiliesHash = 0x5035D3844A421987ULL;
constexpr std::uint64_t kPinnedTypeStatsHash = 0x68437AE2E0CA0A3AULL;
constexpr std::uint64_t kPinnedDomainPopularityHash = 0x482E64A592B7CC76ULL;
constexpr std::uint64_t kPinnedFilesPerDomainHash = 0x70CD066339BD72C2ULL;
constexpr std::uint64_t kPinnedDomainsPerTypeHash = 0xAADC2266B71AF4A0ULL;

void mix_ranking(util::FnvMixer& m,
                 const std::vector<analysis::DomainCount>& ranking) {
  m(ranking.size());
  for (const auto& [name, count] : ranking) {
    m(util::fnv1a64(name));
    m(count);
  }
}

template <typename Enum>
std::uint64_t enum_column_hash(const std::vector<Enum>& column) {
  util::FnvMixer m;
  for (const auto v : column) m(static_cast<std::uint64_t>(v));
  return m.value();
}

void expect_pinned_annotation(const analysis::AnnotatedCorpus& a,
                              const char* which) {
  EXPECT_EQ(enum_column_hash(a.file_types), kPinnedFileTypesHash) << which;
  EXPECT_EQ(enum_column_hash(a.process_types), kPinnedProcessTypesHash)
      << which;

  util::FnvMixer families;
  for (const auto id : a.file_families)
    families(id == analysis::AnnotatedCorpus::kNoFamily
                 ? ~0ULL
                 : util::fnv1a64(a.derived_families.at(id)));
  EXPECT_EQ(families.value(), kPinnedFileFamiliesHash) << which;

  const auto& s = a.file_type_stats;
  util::FnvMixer stats;
  for (const auto v : {s.unanimous, s.voting, s.specificity, s.manual,
                       s.no_leading_label})
    stats(v);
  EXPECT_EQ(stats.value(), kPinnedTypeStatsHash) << which;

  const std::size_t all = a.corpus->num_domains();
  const auto pop = analysis::domain_popularity(a, all);
  util::FnvMixer popularity;
  for (const auto* ranking : {&pop.overall, &pop.benign, &pop.malicious})
    mix_ranking(popularity, *ranking);
  EXPECT_EQ(popularity.value(), kPinnedDomainPopularityHash) << which;

  const auto files = analysis::files_per_domain(a, all);
  util::FnvMixer per_domain;
  mix_ranking(per_domain, files.benign);
  mix_ranking(per_domain, files.malicious);
  per_domain(files.overlap_in_top);
  EXPECT_EQ(per_domain.value(), kPinnedFilesPerDomainHash) << which;

  util::FnvMixer per_type;
  for (const auto& ranking : analysis::domains_per_type(a, all))
    mix_ranking(per_type, ranking);
  EXPECT_EQ(per_type.value(), kPinnedDomainsPerTypeHash) << which;
}

void expect_pinned_tables(const core::LongtailPipeline& pipeline,
                          const char* which) {
  const std::string t01 =
      bench::render_table01(analysis::monthly_summary(pipeline.annotated()));
  const std::string t06 =
      bench::render_table06(analysis::signing_rates(pipeline.annotated()));
  EXPECT_EQ(util::fnv1a64(t01), kPinnedTable01BodyHash) << which;
  EXPECT_EQ(util::fnv1a64(t06), kPinnedTable06BodyHash) << which;
  expect_pinned_annotation(pipeline.annotated(), which);
}

TEST_F(PipelineDeterminismTest, MigrationGateFreshRunMatchesPreMigration) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::set_global_threads(threads);
    const auto pipeline = core::LongtailPipeline::generate(kScale);
    EXPECT_EQ(core::dataset_fingerprint(pipeline.dataset()),
              kPinnedCleanFingerprint);
    expect_pinned_tables(pipeline, "fresh");
  }
}

TEST_F(PipelineDeterminismTest, MigrationGateCachedLoadsMatchPreMigration) {
  // A corpus-cache load re-annotates a deserialized dataset, so a
  // container regression on the load path would surface here as a pin
  // mismatch.
  util::set_global_threads(2);
  const test::TempDir dir;
  const std::string path = dir.file("flat_table_migration_gate.ltds");
  {
    const auto pipeline = core::LongtailPipeline::generate(kScale);
    synth::save_dataset_binary(pipeline.dataset(), path);
  }
  {
    const core::LongtailPipeline owned(synth::load_dataset_binary(path));
    EXPECT_EQ(core::dataset_fingerprint(owned.dataset()),
              kPinnedCleanFingerprint);
    expect_pinned_tables(owned, "owned load");
  }
}

TEST_F(PipelineDeterminismTest, MigrationGateFaultedRunMatchesPreMigration) {
  // LONGTAIL_FAULTS=moderate exercises the hardened ingest (dedup set,
  // reorder buffer, prevalence tracker) far harder than the clean feed.
  auto profile = synth::paper_calibration(kScale);
  const auto moderate = telemetry::named_fault_profile("moderate");
  ASSERT_TRUE(moderate.has_value());
  profile.faults = *moderate;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::set_global_threads(threads);
    const core::LongtailPipeline pipeline(profile);
    EXPECT_EQ(core::dataset_fingerprint(pipeline.dataset()),
              kPinnedModerateFingerprint);
  }
}

}  // namespace
}  // namespace longtail
