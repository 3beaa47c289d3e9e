#include "rules/classifier.hpp"

#include <algorithm>

namespace longtail::rules {

RuleClassifier::RuleClassifier(std::vector<Rule> rules, ConflictPolicy policy)
    : rules_(std::move(rules)), policy_(policy) {
  for (std::uint32_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].conditions.empty()) {
      unconditional_.push_back(i);
      continue;
    }
    const auto& first = rules_[i].conditions.front();
    first_cond_.push_back(
        {static_cast<std::uint32_t>(first.feature), first.value, i});
  }
  std::sort(first_cond_.begin(), first_cond_.end());
  for (std::uint32_t f = 0; f <= features::kNumFeatures; ++f)
    feature_begin_[f] = static_cast<std::uint32_t>(
        std::lower_bound(first_cond_.begin(), first_cond_.end(),
                         FirstCondition{f, 0, 0}) -
        first_cond_.begin());
}

template <typename Visit>
void RuleClassifier::for_each_match(const features::FeatureVector& x,
                                    Visit&& visit) const {
  for (std::uint32_t f = 0; f < features::kNumFeatures; ++f) {
    // Within feature f's slice, the triples are sorted by value.
    const std::uint32_t value = x.values[f];
    const auto last = first_cond_.begin() + feature_begin_[f + 1];
    auto it = std::lower_bound(
        first_cond_.begin() + feature_begin_[f], last, value,
        [](const FirstCondition& c, std::uint32_t v) { return c[1] < v; });
    for (; it != last && (*it)[1] == value; ++it)
      if (rules_[(*it)[2]].matches(x)) visit((*it)[2]);
  }
  for (const auto index : unconditional_) visit(index);
}

std::vector<Rule> select_rules(std::span<const Rule> rules, double tau) {
  std::vector<Rule> out;
  for (const auto& rule : rules)
    if (rule.error_rate() <= tau + 1e-12) out.push_back(rule);
  return out;
}

RuleSetStats rule_set_stats(std::span<const Rule> rules) {
  RuleSetStats stats;
  stats.total = rules.size();
  for (const auto& rule : rules)
    ++(rule.predict_malicious ? stats.malicious_rules : stats.benign_rules);
  return stats;
}

std::vector<std::uint32_t> RuleClassifier::matching_rules(
    const features::FeatureVector& x) const {
  std::vector<std::uint32_t> out;
  for_each_match(x, [&](std::uint32_t index) { out.push_back(index); });
  std::sort(out.begin(), out.end());
  return out;
}

Decision RuleClassifier::classify(const features::FeatureVector& x) const {
  std::uint32_t benign = 0, malicious = 0;
  if (policy_ == ConflictPolicy::kDecisionList) {
    // List semantics depend on rule order: take the lowest-index match.
    const auto matches = matching_rules(x);
    if (matches.empty()) return Decision::kNoMatch;
    return rules_[matches.front()].predict_malicious ? Decision::kMalicious
                                                     : Decision::kBenign;
  }
  for_each_match(x, [&](std::uint32_t index) {
    ++(rules_[index].predict_malicious ? malicious : benign);
  });
  if (benign == 0 && malicious == 0) return Decision::kNoMatch;
  switch (policy_) {
    case ConflictPolicy::kReject:
      if (benign > 0 && malicious > 0) return Decision::kRejected;
      return malicious > 0 ? Decision::kMalicious : Decision::kBenign;
    case ConflictPolicy::kMajorityVote:
      if (benign == malicious) return Decision::kRejected;
      return malicious > benign ? Decision::kMalicious : Decision::kBenign;
    case ConflictPolicy::kDecisionList:
      break;  // unreachable
  }
  return Decision::kNoMatch;
}

}  // namespace longtail::rules
