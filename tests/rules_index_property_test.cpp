// Property test guarding the RuleClassifier's first-condition index: on
// random rule sets and feature vectors, the indexed matcher must agree
// exactly with a naive scan over every rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "rules/classifier.hpp"
#include "util/rng.hpp"

namespace longtail::rules {
namespace {

using features::Feature;
using features::FeatureVector;

// The value ids a case draws from: 0..cardinality-1 by default; `wide`
// spreads them over the whole u32 range, both ends included.
std::vector<std::uint32_t> value_ids(util::Rng& rng, std::uint32_t cardinality,
                                     bool wide = false) {
  std::vector<std::uint32_t> ids;
  if (wide) ids = {0, std::numeric_limits<std::uint32_t>::max()};
  while (ids.size() < cardinality) {
    const auto id = wide ? static_cast<std::uint32_t>(rng.next_u64())
                         : static_cast<std::uint32_t>(ids.size());
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  return ids;
}

std::uint32_t pick(util::Rng& rng, const std::vector<std::uint32_t>& ids) {
  return ids[rng.uniform(ids.size())];
}

FeatureVector random_vector(util::Rng& rng,
                            const std::vector<std::uint32_t>& ids) {
  FeatureVector x;
  for (std::size_t f = 0; f < features::kNumFeatures; ++f)
    x.values[f] = pick(rng, ids);
  return x;
}

std::vector<Rule> random_rules(util::Rng& rng, std::size_t count,
                               const std::vector<std::uint32_t>& ids) {
  std::vector<Rule> rules;
  for (std::size_t i = 0; i < count; ++i) {
    Rule rule;
    const auto n_conditions = rng.uniform(4);  // 0..3 (0 = catch-all)
    for (std::size_t c = 0; c < n_conditions; ++c)
      rule.conditions.push_back(
          {static_cast<Feature>(rng.uniform(features::kNumFeatures)),
           pick(rng, ids)});
    rule.predict_malicious = rng.bernoulli(0.5);
    rule.coverage = 10;
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::vector<std::uint32_t> naive_matches(const std::vector<Rule>& rules,
                                         const FeatureVector& x) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < rules.size(); ++i)
    if (rules[i].matches(x)) out.push_back(i);
  return out;
}

Decision naive_classify(const std::vector<Rule>& rules,
                        const FeatureVector& x, ConflictPolicy policy) {
  const auto matches = naive_matches(rules, x);
  if (matches.empty()) return Decision::kNoMatch;
  if (policy == ConflictPolicy::kDecisionList)
    return rules[matches.front()].predict_malicious ? Decision::kMalicious
                                                    : Decision::kBenign;
  std::uint32_t benign = 0, malicious = 0;
  for (const auto i : matches)
    ++(rules[i].predict_malicious ? malicious : benign);
  if (policy == ConflictPolicy::kReject) {
    if (benign > 0 && malicious > 0) return Decision::kRejected;
    return malicious > 0 ? Decision::kMalicious : Decision::kBenign;
  }
  if (benign == malicious) return Decision::kRejected;
  return malicious > benign ? Decision::kMalicious : Decision::kBenign;
}

class IndexEquivalence : public ::testing::TestWithParam<int> {};

void expect_matches_naive_scan(util::Rng& rng, const std::vector<Rule>& rules,
                               const std::vector<std::uint32_t>& ids) {
  for (const auto policy :
       {ConflictPolicy::kReject, ConflictPolicy::kMajorityVote,
        ConflictPolicy::kDecisionList}) {
    const RuleClassifier classifier(rules, policy);
    for (int i = 0; i < 300; ++i) {
      const auto x = random_vector(rng, ids);
      ASSERT_EQ(classifier.matching_rules(x), naive_matches(rules, x));
      ASSERT_EQ(classifier.classify(x), naive_classify(rules, x, policy));
    }
  }
}

TEST_P(IndexEquivalence, MatchesNaiveScan) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  // Small cardinality forces frequent collisions and catch-all rules.
  const std::uint32_t cardinality = 3 + static_cast<std::uint32_t>(
                                            rng.uniform(6));
  const auto ids = value_ids(rng, cardinality);
  const auto rules = random_rules(rng, 40 + rng.uniform(100), ids);
  expect_matches_naive_scan(rng, rules, ids);
}

TEST_P(IndexEquivalence, WideValueIdsMatchNaiveScan) {
  // A hand-built rule may test any u32 value: the index must neither
  // size itself by value ids nor lose the extremes.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::uint32_t cardinality = 3 + static_cast<std::uint32_t>(
                                            rng.uniform(6));
  const auto ids = value_ids(rng, cardinality, /*wide=*/true);
  const auto rules = random_rules(rng, 40 + rng.uniform(100), ids);
  expect_matches_naive_scan(rng, rules, ids);
}

TEST_P(IndexEquivalence, EmptyRuleSetMatchesNothing) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const auto ids = value_ids(rng, 5, /*wide=*/GetParam() % 2 == 0);
  expect_matches_naive_scan(rng, {}, ids);
  const RuleClassifier classifier({});
  EXPECT_EQ(classifier.classify(random_vector(rng, ids)), Decision::kNoMatch);
}

INSTANTIATE_TEST_SUITE_P(RandomRuleSets, IndexEquivalence,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace longtail::rules
