// Adversarial scenario engine tests: spec/preset round-trips, parser
// diagnostics that name the offending key/value, bit-identical datasets
// for every preset across thread counts and reruns, scenario x fault
// composition, the zero-spec strict no-op, the corpus-cache key, and the
// §VII hash-churn property — σ-cap admission drops while raw download
// volume is exactly conserved.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "bench/sweep_common.hpp"
#include "core/pipeline.hpp"
#include "synth/calibration.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "telemetry/collection.hpp"
#include "telemetry/faults.hpp"
#include "util/thread_pool.hpp"

namespace longtail {
namespace {

using synth::ScenarioProfile;

// ---- spec / preset / parser ----------------------------------------------

TEST(Scenario, ZeroProfileIsInactive) {
  const ScenarioProfile p;
  EXPECT_FALSE(p.active());
  EXPECT_FALSE(p.bursts_active());
  EXPECT_FALSE(p.churn_active());
  EXPECT_FALSE(p.signer_active());
  EXPECT_FALSE(p.ppi_active());
  EXPECT_FALSE(p.storms_active());
  EXPECT_EQ(p.spec(), "");
  EXPECT_EQ(p.cache_key(), "");
}

TEST(Scenario, SpecRoundTrips) {
  const ScenarioProfile p = synth::parse_scenario_profile(
      "burst_files=40,burst_machines=900,burst_window=1800,churn=0.5,"
      "cohort=6,signer=0.25,signers=3,signer_month=1,revoke_month=4,"
      "ppi=0.35,ppi_month=2,storm_files=5,storm_machines=4000,"
      "storm_window=5400");
  EXPECT_EQ(p.burst_files, 40u);
  EXPECT_EQ(p.burst_machines, 900u);
  EXPECT_DOUBLE_EQ(p.burst_window_s, 1800.0);
  EXPECT_DOUBLE_EQ(p.churn_rate, 0.5);
  EXPECT_EQ(p.churn_cohort, 6u);
  EXPECT_DOUBLE_EQ(p.stolen_signer_rate, 0.25);
  EXPECT_EQ(p.stolen_signer_count, 3u);
  EXPECT_EQ(p.signer_compromise_month, 1u);
  EXPECT_EQ(p.signer_revoke_month, 4u);
  EXPECT_DOUBLE_EQ(p.ppi_shift_rate, 0.35);
  EXPECT_EQ(p.ppi_shift_month, 2u);
  EXPECT_EQ(p.storm_files, 5u);
  EXPECT_EQ(p.storm_machines, 4000u);
  EXPECT_DOUBLE_EQ(p.storm_window_s, 5400.0);

  const ScenarioProfile reparsed = synth::parse_scenario_profile(p.spec());
  EXPECT_EQ(reparsed.spec(), p.spec());
  EXPECT_EQ(reparsed.cache_key(), p.cache_key());
}

TEST(Scenario, NamedPresetsExistAndRoundTrip) {
  EXPECT_FALSE(synth::named_scenario_profile("off")->active());
  EXPECT_FALSE(synth::named_scenario_profile("none")->active());
  EXPECT_FALSE(synth::named_scenario_profile("no_such_preset").has_value());
  for (const auto name : synth::scenario_preset_names()) {
    const auto preset = synth::named_scenario_profile(name);
    ASSERT_TRUE(preset.has_value()) << name;
    EXPECT_TRUE(preset->active()) << name;
    // A preset's canonical spec reproduces the preset.
    const ScenarioProfile reparsed =
        synth::parse_scenario_profile(preset->spec());
    EXPECT_EQ(reparsed.spec(), preset->spec()) << name;
    // Preset names are themselves valid parse inputs.
    EXPECT_EQ(synth::parse_scenario_profile(name).spec(), preset->spec())
        << name;
  }
  // worst_day composes all five stressors.
  const auto worst = *synth::named_scenario_profile("worst_day");
  EXPECT_TRUE(worst.bursts_active());
  EXPECT_TRUE(worst.churn_active());
  EXPECT_TRUE(worst.signer_active());
  EXPECT_TRUE(worst.ppi_active());
  EXPECT_TRUE(worst.storms_active());
}

TEST(Scenario, CacheKeysDistinguishProfiles) {
  const auto key = [](std::string_view spec) {
    return synth::parse_scenario_profile(spec).cache_key();
  };
  EXPECT_EQ(key(""), "");
  EXPECT_NE(key("churn=0.8"), "");
  EXPECT_NE(key("churn=0.8"), key("churn=0.9"));
  EXPECT_NE(key("churn=0.8"), key("ppi=0.8"));
  EXPECT_EQ(key("churn=0.8,cohort=8"), key("cohort=8,churn=0.8"));
}

TEST(Scenario, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)synth::parse_scenario_profile("nonsense=1"),
               std::runtime_error);
  // NB: a bare "churn" IS valid — it names the churn preset. A bare
  // non-preset word is the missing-'=' case.
  EXPECT_THROW((void)synth::parse_scenario_profile("burst_files"),
               std::runtime_error);
  EXPECT_THROW((void)synth::parse_scenario_profile("churn=abc"),
               std::runtime_error);
  EXPECT_THROW((void)synth::parse_scenario_profile("churn=1.5"),
               std::runtime_error);
  EXPECT_THROW((void)synth::parse_scenario_profile("churn=-0.1"),
               std::runtime_error);
  EXPECT_THROW((void)synth::parse_scenario_profile("burst_window=0"),
               std::runtime_error);
}

std::string scenario_parse_error(std::string_view text) {
  try {
    (void)synth::parse_scenario_profile(text);
  } catch (const std::runtime_error& ex) {
    return ex.what();
  }
  return {};
}

// The operator-facing contract: a malformed spec's diagnostic names the
// spec, the offending key and value, and the legal range — and an unknown
// key lists the keys that do exist.
TEST(Scenario, ParserDiagnosticsNameOffendingKeyAndValue) {
  const std::string bad_value = scenario_parse_error("churn=1.5");
  EXPECT_NE(bad_value.find("scenario spec"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("'churn'"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("'1.5'"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("[0, 1]"), std::string::npos) << bad_value;

  const std::string no_eq = scenario_parse_error("churn=0.5,burst_files");
  EXPECT_NE(no_eq.find("expected key=value"), std::string::npos) << no_eq;
  EXPECT_NE(no_eq.find("'burst_files'"), std::string::npos) << no_eq;

  const std::string unknown = scenario_parse_error("chrn=0.8");
  EXPECT_NE(unknown.find("unknown key 'chrn'"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("valid keys"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("churn"), std::string::npos) << unknown;
}

TEST(Scenario, EnvParsesWarnsAndFallsBack) {
  ::setenv("LONGTAIL_SCENARIO", "churn=0.8,cohort=4", 1);
  const ScenarioProfile on = synth::scenario_from_env();
  EXPECT_TRUE(on.churn_active());
  EXPECT_EQ(on.churn_cohort, 4u);

  // Invalid value: warn (on stderr) and run the unperturbed world.
  ::setenv("LONGTAIL_SCENARIO", "churn=banana", 1);
  EXPECT_FALSE(synth::scenario_from_env().active());

  ::unsetenv("LONGTAIL_SCENARIO");
  EXPECT_FALSE(synth::scenario_from_env().active());
}

// ---- corpus-cache keying --------------------------------------------------

// LTDS images do not serialize the scenario, so the cache *path* must pin
// it: a scenario run may never collide with the scenario-free cache entry
// (or with a different scenario's), and the scenario-free path must be
// unchanged from the scenario-unaware code.
TEST(ScenarioCache, CachePathPinsScenarioAndFaults) {
  const auto faults = *telemetry::named_fault_profile("moderate");
  const auto churn = *synth::named_scenario_profile("churn");
  const std::string plain = bench::corpus_cache_path("/tmp/c", 0.05);
  const std::string faulted = bench::corpus_cache_path("/tmp/c", 0.05, faults);
  const std::string scen =
      bench::corpus_cache_path("/tmp/c", 0.05, {}, churn);
  const std::string both =
      bench::corpus_cache_path("/tmp/c", 0.05, faults, churn);

  EXPECT_NE(plain, faulted);
  EXPECT_NE(plain, scen);
  EXPECT_NE(faulted, both);
  EXPECT_NE(scen, both);
  EXPECT_NE(scen, bench::corpus_cache_path(
                      "/tmp/c", 0.05, {},
                      *synth::named_scenario_profile("worst_day")));
  // Scenario-free paths carry no scenario fragment; scenario paths embed
  // the profile's cache key.
  EXPECT_EQ(plain.find(churn.cache_key()), std::string::npos);
  EXPECT_NE(scen.find(churn.cache_key()), std::string::npos);
}

// ---- σ-cap accounting -----------------------------------------------------

TEST(Scenario, PrevalenceTrackerCountsSaturatedFiles) {
  telemetry::PrevalenceTracker tracker(3);  // sigma = 3
  const auto admit = [&](std::uint32_t f, std::uint32_t m) {
    return tracker.admit(model::FileId{f}, model::MachineId{m});
  };
  // File 0: four distinct machines — saturates at 3, drops the fourth.
  EXPECT_TRUE(admit(0, 10));
  EXPECT_TRUE(admit(0, 11));
  EXPECT_TRUE(admit(0, 12));
  EXPECT_FALSE(admit(0, 13));
  EXPECT_TRUE(admit(0, 11));  // repeat on an admitted machine still passes
  // File 1: two machines — under the cap.
  EXPECT_TRUE(admit(1, 10));
  EXPECT_TRUE(admit(1, 20));
  EXPECT_EQ(tracker.tracked_files(), 2u);
  EXPECT_EQ(tracker.saturated_files(), 1u);
  EXPECT_TRUE(tracker.saturated(model::FileId{0}));
  EXPECT_FALSE(tracker.saturated(model::FileId{1}));
}

// ---- generation: determinism, no-op, composition, churn property ----------

constexpr double kScale = 0.01;

std::uint64_t fingerprint_for(const ScenarioProfile& scenario,
                              const telemetry::FaultProfile& faults = {}) {
  auto profile = synth::paper_calibration(kScale);
  profile.scenario = scenario;
  profile.faults = faults;
  const auto ds = synth::generate_dataset(profile);
  return core::dataset_fingerprint(ds);
}

class ScenarioDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_global_threads(util::ThreadPool::default_threads());
  }
};

TEST_F(ScenarioDeterminism, EveryPresetBitIdenticalAcrossThreadsAndReruns) {
  for (const auto name : synth::scenario_preset_names()) {
    const auto scenario = *synth::named_scenario_profile(name);
    std::uint64_t expected = 0;
    for (const unsigned threads : {1u, 2u, 8u}) {
      util::set_global_threads(threads);
      const std::uint64_t fp = fingerprint_for(scenario);
      if (expected == 0) expected = fp;
      EXPECT_EQ(fp, expected) << name << " at " << threads << " threads";
    }
    util::set_global_threads(2);
    EXPECT_EQ(fingerprint_for(scenario), expected) << name << " rerun";
  }
}

TEST_F(ScenarioDeterminism, FaultCompositionBitIdenticalAcrossThreads) {
  const auto scenario = *synth::named_scenario_profile("worst_day");
  const auto faults = *telemetry::named_fault_profile("moderate");
  std::uint64_t expected = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    const std::uint64_t fp = fingerprint_for(scenario, faults);
    if (expected == 0) expected = fp;
    EXPECT_EQ(fp, expected) << threads << " threads";
  }
}

// The strict no-op: an all-default ScenarioProfile takes the exact seed
// code path — the dataset is bit-identical to one generated by a profile
// that never touched the scenario field. (CI additionally checks table
// stdout byte-identity against the pre-scenario baseline.)
TEST_F(ScenarioDeterminism, ZeroSpecIsAStrictNoOp) {
  const auto untouched = synth::generate_dataset(kScale);
  EXPECT_EQ(fingerprint_for(ScenarioProfile{}),
            core::dataset_fingerprint(untouched));
}

// The §VII evasion property: full-rate hash churn with a cohort far below
// sigma must (a) move exactly the same raw download volume, (b) strictly
// reduce prevalence-cap drops, and (c) leave fewer saturated files — the
// cap stops firing although the malware distribution never shrank.
TEST(ScenarioChurn, DefeatsSigmaCapWhileConservingRawVolume) {
  const core::LongtailPipeline base(synth::paper_calibration(0.02));
  const auto base_sigma = bench::measure_sigma_cap(base);

  auto churn_profile = synth::paper_calibration(0.02);
  churn_profile.scenario = synth::parse_scenario_profile("churn=1,cohort=4");
  const core::LongtailPipeline churned(churn_profile);
  const auto churn_sigma = bench::measure_sigma_cap(churned);

  // (a) raw volume exactly conserved: every prevalence slot still emits
  // exactly one download attempt.
  EXPECT_EQ(churn_sigma.total_seen, base_sigma.total_seen);
  // (b,c) the cap fires strictly less.
  EXPECT_LT(churn_sigma.dropped_prevalence_cap,
            base_sigma.dropped_prevalence_cap);
  EXPECT_LT(churn_sigma.saturated_files, base_sigma.saturated_files);
  // More of the moved volume is admitted — the evasion pays off.
  EXPECT_GT(churn_sigma.accepted, base_sigma.accepted);
  // And the variants really did split prevalent files into more hashes.
  EXPECT_GT(churn_sigma.files_seen, base_sigma.files_seen);
}

}  // namespace
}  // namespace longtail
