// Shared C4.5 induction helpers used by both the PART learner (partial
// trees) and the full DecisionTree classifier: class entropy, candidate
// partitioning, and gain-ratio split selection with the "at least average
// gain" constraint.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "features/features.hpp"

namespace longtail::rules::induction {

double entropy2(double mal, double n);

struct Subset {
  std::vector<std::uint32_t> items;  // indices into the instance span
  std::uint32_t mal = 0;
  [[nodiscard]] double entropy() const {
    return entropy2(mal, static_cast<double>(items.size()));
  }
};

struct SplitChoice {
  bool found = false;
  features::Feature feature{};
  // Built by visiting the node's items in order and inserting each new
  // value as it first occurs; DecisionTree sums its children's error
  // estimates in this map's iteration order.
  std::unordered_map<std::uint32_t, Subset> partitions;
};

// Chooses the multiway categorical split with the best gain ratio among
// attributes whose information gain is at least the average positive gain
// (C4.5's heuristic). Requires at least two branches with `min_instances`
// instances; returns found=false when no viable split exists.
//
// Count-first: one pass over a node's items tallies (instances,
// malicious) per value of all eight features into dense per-feature
// counters, and only the winning feature's items are partitioned.
//
// Order contract: each feature's gain and split-info sums add their
// per-value terms in the iteration order of a std::unordered_map whose
// keys (the value ids) were inserted in first-occurrence order — the
// order the map-per-feature selection summed in. The terms are the same
// either way, but floating-point addition is not associative: summing in
// first-occurrence order instead changed no table at scales 0.02, 0.05
// or 0.10, yet breaks exact ties differently, which the differential
// test in tests/rules_reference_test.cpp detects.
//
// A selector serves one instance span and keeps its counters between
// calls, so one learner owns one selector; it is not thread-safe.
class SplitSelector {
 public:
  explicit SplitSelector(std::span<const features::Instance> data);

  SplitChoice choose(const std::vector<std::uint32_t>& items,
                     std::uint32_t mal, std::uint32_t min_instances);

 private:
  struct Count {
    std::uint32_t n = 0;
    std::uint32_t mal = 0;
  };

  std::span<const features::Instance> data_;
  // Per instance, the dense code of each feature's value; per feature,
  // the value id of each code.
  std::vector<std::array<std::uint32_t, features::kNumFeatures>> codes_;
  std::array<std::vector<std::uint32_t>, features::kNumFeatures> values_;
  // Working state of one choose() call: counts by code (zeroed on exit)
  // and each feature's codes in first-occurrence order.
  std::array<std::vector<Count>, features::kNumFeatures> counts_;
  std::array<std::vector<std::uint32_t>, features::kNumFeatures> seen_;
  std::vector<Subset*> subsets_;  // the winner's partitions by code
};

}  // namespace longtail::rules::induction
