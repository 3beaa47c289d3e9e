// Rule-layer gate: FNV pins of every §VI rule-layer output at scale 0.02.
//
// The five constants below were captured from the build immediately
// BEFORE memoised feature extraction, the per-month first-event lists,
// count-first split selection and the flat first-condition index
// replaced the map-based rule layer. They digest, for the six
// consecutive (train, test) windows of the fan-out:
//
//   * each window's FeatureSpace — every feature's value names in id
//     order. At this scale no table stdout notices a change of intern
//     order (Tables XVI and XVII only do from scale 0.05 up), so this
//     pin is what catches one;
//   * the train, test and unknown instances — file, all eight value ids
//     and class — plus the count of test files dropped as overlap;
//   * the PART output before the tau filter — every condition's feature
//     and value id, the class, coverage and errors of every rule;
//   * evaluate_taus at tau 0 and 0.001 — every count and every rule
//     behind a false positive;
//   * the online labeler's batch replay — every field of its monthly
//     results and of its freshness statistics.
//
// The online pin was re-captured, paired, when the label-time search
// gained the first-VT-scan breakpoint: that fix moves only the freshness
// statistics, and the other four pins held across it.
//
// Update the pins only with a paired capture from the commit being
// replaced, never to "make the test pass".
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "deploy/online.hpp"
#include "synth/dataset_io.hpp"
#include "tests/temp_dir.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace longtail {
namespace {

constexpr double kScale = 0.02;

constexpr std::uint64_t kPinnedSpacesHash = 0xC3ED753DE7ED92FCULL;
constexpr std::uint64_t kPinnedInstancesHash = 0x73D8392C2D30EF8EULL;
constexpr std::uint64_t kPinnedRulesHash = 0x92F892C39DFB230FULL;
constexpr std::uint64_t kPinnedTausHash = 0x178B503ED9F9A2DFULL;
constexpr std::uint64_t kPinnedOnlineHash = 0x9C2F7956F366E29BULL;

struct RuleLayerDigest {
  std::uint64_t spaces = 0;
  std::uint64_t instances = 0;
  std::uint64_t rules = 0;
  std::uint64_t taus = 0;
  std::uint64_t online = 0;
};

void mix_double(util::FnvMixer& m, double v) {
  m(std::bit_cast<std::uint64_t>(v));
}

void mix_instances(util::FnvMixer& m,
                   const std::vector<features::Instance>& instances) {
  m(instances.size());
  for (const auto& inst : instances) {
    m(inst.file.raw());
    for (const auto value : inst.x.values) m(value);
    m(inst.malicious ? 1 : 0);
  }
}

void mix_space(util::FnvMixer& m, const features::FeatureSpace& space) {
  for (std::size_t f = 0; f < features::kNumFeatures; ++f) {
    const auto feature = static_cast<features::Feature>(f);
    const auto n = space.cardinality(feature);
    m(n);
    for (std::uint32_t id = 0; id < n; ++id)
      m(util::fnv1a64(space.name(feature, id)));
  }
}

void mix_rules(util::FnvMixer& m, const std::vector<rules::Rule>& rules) {
  m(rules.size());
  for (const auto& rule : rules) {
    m(rule.conditions.size());
    for (const auto& c : rule.conditions) {
      m(static_cast<std::uint64_t>(c.feature));
      m(c.value);
    }
    m(rule.predict_malicious ? 1 : 0);
    m(rule.coverage);
    m(rule.errors);
  }
}

void mix_tau(util::FnvMixer& m, const core::TauEvaluation& e) {
  mix_double(m, e.tau);
  m(e.selected.total);
  m(e.selected.benign_rules);
  m(e.selected.malicious_rules);
  const auto& ev = e.eval;
  for (const std::uint64_t v :
       {ev.matched_malicious, ev.matched_benign, ev.rejected, ev.unmatched,
        ev.true_positives, ev.false_negatives, ev.false_positives,
        ev.true_negatives})
    m(v);
  m(ev.fp_rules.size());
  for (const auto rule : ev.fp_rules) m(rule);
  const auto& ex = e.expansion;
  for (const std::uint64_t v : {ex.total_unknowns, ex.labeled_malicious,
                                ex.labeled_benign, ex.rejected})
    m(v);
}

std::uint64_t online_digest(const core::LongtailPipeline& pipeline) {
  deploy::OnlineLabeler labeler(pipeline.dataset(), pipeline.annotated());
  const auto monthly = labeler.run();
  util::FnvMixer m;
  m(monthly.size());
  for (const auto& s : monthly) {
    for (const std::uint64_t v :
         {s.events, s.decided_malicious, s.decided_benign, s.rejected,
          s.unmatched, s.true_positives, s.false_positives,
          s.final_malicious_decided, s.final_benign_decided})
      m(v);
    m(s.rules_active);
    m(s.training_instances);
  }
  const auto& f = labeler.freshness();
  m(f.files_reported);
  m(f.files_labeled);
  m(f.files_pending);
  for (const double v : {f.p50_s, f.p90_s, f.p99_s, f.max_s, f.mean_s})
    mix_double(m, v);
  return m.value();
}

RuleLayerDigest digest_rule_layer(const core::LongtailPipeline& pipeline) {
  std::vector<std::pair<model::Month, model::Month>> windows;
  for (std::size_t m = 0; m + 1 < model::kNumCollectionMonths; ++m)
    windows.emplace_back(static_cast<model::Month>(m),
                         static_cast<model::Month>(m + 1));
  const auto experiments = pipeline.run_rule_experiments(windows);
  const std::vector<double> taus = {0.0, 0.001};

  util::FnvMixer spaces, instances, rules, tau_evals;
  for (const auto& exp : experiments) {
    mix_space(spaces, exp.space);
    mix_instances(instances, exp.data.train);
    mix_instances(instances, exp.data.test);
    mix_instances(instances, exp.data.unknowns);
    instances(exp.data.excluded_overlap);
    mix_rules(rules, exp.all_rules);
    for (const auto& e : core::LongtailPipeline::evaluate_taus(exp, taus))
      mix_tau(tau_evals, e);
  }
  return {spaces.value(), instances.value(), rules.value(),
          tau_evals.value(), online_digest(pipeline)};
}

void expect_pinned(const core::LongtailPipeline& pipeline,
                   const char* which) {
  const auto d = digest_rule_layer(pipeline);
  EXPECT_EQ(d.spaces, kPinnedSpacesHash) << which;
  EXPECT_EQ(d.instances, kPinnedInstancesHash) << which;
  EXPECT_EQ(d.rules, kPinnedRulesHash) << which;
  EXPECT_EQ(d.taus, kPinnedTausHash) << which;
  EXPECT_EQ(d.online, kPinnedOnlineHash) << which;
}

class RuleLayerGate : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_global_threads(util::ThreadPool::default_threads());
  }
};

TEST_F(RuleLayerGate, FreshRunMatchesPinsAt1And2And8Threads) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::set_global_threads(threads);
    const auto pipeline = core::LongtailPipeline::generate(kScale);
    expect_pinned(pipeline, "fresh");
  }
}

TEST_F(RuleLayerGate, CachedLoadsMatchPins) {
  // A corpus-cache load re-annotates a deserialized dataset; the rule
  // layer must not be able to tell it from a fresh run.
  util::set_global_threads(2);
  const test::TempDir dir;
  const std::string path = dir.file("rule_layer_gate.ltds");
  {
    const auto pipeline = core::LongtailPipeline::generate(kScale);
    synth::save_dataset_binary(pipeline.dataset(), path);
  }
  {
    const core::LongtailPipeline owned(synth::load_dataset_binary(path));
    expect_pinned(owned, "owned load");
  }
}

}  // namespace
}  // namespace longtail
