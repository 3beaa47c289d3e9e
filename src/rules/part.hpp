// The PART rule learner (Frank & Witten, "Generating Accurate Rule Sets
// Without Global Optimization", ICML 1998) — the algorithm the paper uses
// to extract human-readable classification rules (§VI-C).
//
// Separate-and-conquer: repeatedly build a *partial* C4.5 decision tree
// over the remaining instances, turn the leaf with the largest coverage
// into a rule, discard the tree, remove the covered instances, repeat.
// Partial-tree construction expands subsets in order of ascending entropy
// and stops as soon as an expanded subtree cannot be collapsed into a leaf
// by C4.5's pessimistic-error subtree replacement.
//
// Splits are multiway on categorical attributes, chosen by gain ratio
// among attributes with at least average information gain (C4.5's
// heuristic).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/features.hpp"
#include "rules/rule.hpp"

namespace longtail::rules {

struct PartConfig {
  // Minimum instances for a branch to be considered a viable split child.
  std::uint32_t min_instances = 4;
  // C4.5 pruning confidence (0.25 is the classic default).
  double pruning_confidence = 0.25;
  // Safety cap on the number of rules extracted.
  std::uint32_t max_rules = 10'000;
  // If true, a final catch-all rule (empty condition list, majority class)
  // is emitted for the residue. Weka's PART does this; the paper's tau
  // filter then almost always discards it.
  bool emit_default_rule = true;
};

// C4.5 pessimistic error: the upper confidence bound on the error rate of
// a leaf observing `errors` errors out of `n` instances.
double pessimistic_error_rate(double errors, double n, double confidence);

class PartLearner {
 public:
  explicit PartLearner(PartConfig config = {}) : config_(config) {}

  // Learns an ordered rule list. PART extracts each rule from the
  // instances the earlier rules left uncovered, but the returned
  // statistics (coverage/errors) are re-scored on the full training
  // data, because the rules are applied as a set (§VI-D).
  [[nodiscard]] std::vector<Rule> learn(
      std::span<const features::Instance> data) const;

  [[nodiscard]] const PartConfig& config() const noexcept { return config_; }

 private:
  PartConfig config_;
};

}  // namespace longtail::rules
