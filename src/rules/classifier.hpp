// The rule-based classifier of §VI-D.
//
// Rules surviving the tau error-rate filter are applied as a *set* (not a
// decision list): a file matching only benign rules is benign, only
// malicious rules malicious; a file matching both is REJECTED (no verdict)
// — the paper argues rejection keeps false positives low and is the
// advantage over classifying with a whole decision tree. A file matching
// no rule is left unlabeled.
//
// Alternative conflict policies are provided for the ablation benchmarks.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rules/rule.hpp"

namespace longtail::rules {

enum class Decision : std::uint8_t {
  kBenign = 0,
  kMalicious,
  kRejected,  // conflicting rules matched
  kNoMatch,
};

enum class ConflictPolicy : std::uint8_t {
  kReject = 0,     // the paper's choice
  kMajorityVote,   // ablation: most matching rules win (ties rejected)
  kDecisionList,   // ablation: first matching rule wins (PART's native use)
};

// Tau filter (§VI-D): keep only rules whose training error rate is at most
// tau (e.g. 0.0 or 0.001).
std::vector<Rule> select_rules(std::span<const Rule> rules, double tau);

struct RuleSetStats {
  std::size_t total = 0;
  std::size_t benign_rules = 0;
  std::size_t malicious_rules = 0;
};

RuleSetStats rule_set_stats(std::span<const Rule> rules);

class RuleClassifier {
 public:
  explicit RuleClassifier(std::vector<Rule> rules,
                          ConflictPolicy policy = ConflictPolicy::kReject);

  [[nodiscard]] Decision classify(const features::FeatureVector& x) const;

  // The indexes (into rules()) of the rules matching x, ascending.
  [[nodiscard]] std::vector<std::uint32_t> matching_rules(
      const features::FeatureVector& x) const;

  [[nodiscard]] const std::vector<Rule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] ConflictPolicy policy() const noexcept { return policy_; }

 private:
  // A rule can only match x if its first condition does, so rules are
  // bucketed by their first condition's (feature, value); one search per
  // feature replaces the linear scan over the whole rule set (rule sets
  // reach thousands at full corpus scale).
  template <typename Visit>
  void for_each_match(const features::FeatureVector& x, Visit&& visit) const;

  std::vector<Rule> rules_;
  ConflictPolicy policy_;
  // The first-condition index: a (feature, value, rule) triple per rule
  // with conditions, sorted, so each (feature, value) bucket is one run
  // in ascending rule order. Its size follows the rule count alone (a
  // hand-built rule may test any value id).
  using FirstCondition = std::array<std::uint32_t, 3>;
  std::vector<FirstCondition> first_cond_;
  // Feature f's triples are first_cond_[feature_begin_[f],
  // feature_begin_[f + 1]). Searching that slice alone costs nothing for
  // a feature no rule starts with, where a search of the whole index
  // pays its full depth for every feature of every instance.
  std::array<std::uint32_t, features::kNumFeatures + 1> feature_begin_{};
  std::vector<std::uint32_t> unconditional_;
};

}  // namespace longtail::rules
