#include "features/dataset.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/pipeline.hpp"
#include "dataset_fixture.hpp"

namespace longtail::features {
namespace {

TEST(AlexaBucket, BucketsMatchPaperRules) {
  // The paper's example rules use "between 10,000 to 100,000" and
  // "above 100K".
  EXPECT_EQ(alexa_bucket(0), "unranked");
  EXPECT_EQ(alexa_bucket(1), "top-1k");
  EXPECT_EQ(alexa_bucket(1'000), "top-1k");
  EXPECT_EQ(alexa_bucket(1'001), "1k-10k");
  EXPECT_EQ(alexa_bucket(10'000), "1k-10k");
  EXPECT_EQ(alexa_bucket(10'001), "10k-100k");
  EXPECT_EQ(alexa_bucket(100'000), "10k-100k");
  EXPECT_EQ(alexa_bucket(100'001), "100k-1M");
  EXPECT_EQ(alexa_bucket(2'000'000), "beyond-1M");
}

TEST(FeatureSpace, InternsPerFeature) {
  FeatureSpace space;
  const auto a = space.intern(Feature::kFileSigner, "X");
  const auto b = space.intern(Feature::kFilePacker, "X");
  // Same string, different features: independent vocabularies.
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(space.name(Feature::kFileSigner, a), "X");
  EXPECT_EQ(space.cardinality(Feature::kFileSigner), 1u);
}

TEST(FeatureNames, AllFeaturesNamed) {
  for (std::size_t f = 0; f < kNumFeatures; ++f)
    EXPECT_FALSE(to_string(static_cast<Feature>(f)).empty());
}

class FeatureExtractionTest : public ::testing::Test {
 protected:
  static const core::LongtailPipeline& pipeline() {
    return test::shared_pipeline(0.02);
  }
};

TEST_F(FeatureExtractionTest, ExtractsAllEightFeatures) {
  const auto& a = pipeline().annotated();
  FeatureSpace space;
  FeatureExtractor extract(a, space);
  const auto x = extract(a.corpus->events.front());
  for (std::size_t f = 0; f < kNumFeatures; ++f) {
    EXPECT_LT(x.values[f], space.cardinality(static_cast<Feature>(f)));
  }
}

TEST_F(FeatureExtractionTest, UnsignedFilesGetNotSignedValue) {
  const auto& a = pipeline().annotated();
  FeatureSpace space;
  FeatureExtractor extract(a, space);
  for (const auto e : a.corpus->events) {
    if (a.corpus->files[e.file().raw()].is_signed) continue;
    const auto x = extract(e);
    EXPECT_EQ(space.name(Feature::kFileSigner, x.at(Feature::kFileSigner)),
              "not-signed");
    EXPECT_EQ(space.name(Feature::kFileCa, x.at(Feature::kFileCa)), "no-ca");
    break;
  }
}

TEST_F(FeatureExtractionTest, WindowDatasetSplitsAreDisjoint) {
  const auto& a = pipeline().annotated();
  FeatureSpace space;
  const auto data = build_window_dataset(a, space, model::Month::kMarch,
                                         model::Month::kApril);
  ASSERT_FALSE(data.train.empty());
  ASSERT_FALSE(data.test.empty());
  ASSERT_FALSE(data.unknowns.empty());

  std::unordered_set<std::uint32_t> train_files;
  for (const auto& inst : data.train) train_files.insert(inst.file.raw());
  for (const auto& inst : data.test)
    EXPECT_FALSE(train_files.contains(inst.file.raw()));
  for (const auto& inst : data.unknowns)
    EXPECT_FALSE(train_files.contains(inst.file.raw()));
}

TEST_F(FeatureExtractionTest, TrainContainsOnlyLabeledFiles) {
  const auto& a = pipeline().annotated();
  FeatureSpace space;
  const auto data = build_window_dataset(a, space, model::Month::kMarch,
                                         model::Month::kApril);
  for (const auto& inst : data.train) {
    const auto v = a.verdict(inst.file);
    EXPECT_TRUE(v == model::Verdict::kBenign ||
                v == model::Verdict::kMalicious);
    EXPECT_EQ(inst.malicious, v == model::Verdict::kMalicious);
  }
  for (const auto& inst : data.unknowns)
    EXPECT_EQ(a.verdict(inst.file), model::Verdict::kUnknown);
}

TEST_F(FeatureExtractionTest, WindowRespectsTimeBounds) {
  const auto& a = pipeline().annotated();
  FeatureSpace space;
  const auto instances =
      labeled_instances(a, space, model::month_begin(model::Month::kMay),
                        model::month_end(model::Month::kMay));
  // Every instance's file must have an event in May.
  const auto [begin, end] = a.index.month_range(model::Month::kMay);
  std::unordered_set<std::uint32_t> may_files;
  for (std::uint32_t i = begin; i < end; ++i)
    may_files.insert(a.corpus->events[i].file().raw());
  for (const auto& inst : instances)
    EXPECT_TRUE(may_files.contains(inst.file.raw()));
}

TEST_F(FeatureExtractionTest, DatasetIsDeterministic) {
  const auto& a = pipeline().annotated();
  FeatureSpace s1, s2;
  const auto d1 = build_window_dataset(a, s1, model::Month::kFebruary,
                                       model::Month::kMarch);
  const auto d2 = build_window_dataset(a, s2, model::Month::kFebruary,
                                       model::Month::kMarch);
  ASSERT_EQ(d1.train.size(), d2.train.size());
  for (std::size_t i = 0; i < d1.train.size(); ++i) {
    EXPECT_EQ(d1.train[i].file, d2.train[i].file);
    EXPECT_EQ(d1.train[i].x, d2.train[i].x);
  }
}

}  // namespace
}  // namespace longtail::features
