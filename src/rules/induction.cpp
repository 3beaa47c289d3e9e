#include "rules/induction.hpp"

#include <cmath>

namespace longtail::rules::induction {

double entropy2(double mal, double n) {
  if (n <= 0) return 0.0;
  const double p = mal / n;
  double h = 0.0;
  if (p > 0) h -= p * std::log2(p);
  if (p < 1) h -= (1 - p) * std::log2(1 - p);
  return h;
}

SplitSelector::SplitSelector(std::span<const features::Instance> data)
    : data_(data), codes_(data.size()) {
  // Each feature's value ids get dense codes in first-occurrence order,
  // once per learner. A hand-built instance may carry any u32 id, so the
  // coding goes through a hash map, never a table indexed by id.
  for (std::size_t f = 0; f < features::kNumFeatures; ++f) {
    auto& values = values_[f];
    std::unordered_map<std::uint32_t, std::uint32_t> code_of;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto value = data[i].x.values[f];
      const auto [it, inserted] = code_of.try_emplace(
          value, static_cast<std::uint32_t>(values.size()));
      if (inserted) values.push_back(value);
      codes_[i][f] = it->second;
    }
    counts_[f].resize(values.size());
  }
}

SplitChoice SplitSelector::choose(const std::vector<std::uint32_t>& items,
                                  std::uint32_t mal,
                                  std::uint32_t min_instances) {
  const double n = static_cast<double>(items.size());
  const double base_entropy = entropy2(mal, n);

  for (const auto item : items) {
    const auto& codes = codes_[item];
    const std::uint32_t is_mal = data_[item].malicious ? 1 : 0;
    for (std::size_t f = 0; f < features::kNumFeatures; ++f) {
      auto& count = counts_[f][codes[f]];
      if (count.n++ == 0) seen_[f].push_back(codes[f]);
      count.mal += is_mal;
    }
  }

  struct Candidate {
    features::Feature feature{};
    double gain = 0, gain_ratio = 0;
  };
  std::vector<Candidate> candidates;
  double gain_sum = 0;

  for (std::size_t fi = 0; fi < features::kNumFeatures; ++fi) {
    const auto& seen = seen_[fi];
    const auto& counts = counts_[fi];
    if (seen.size() < 2) continue;
    std::size_t viable = 0;
    for (const auto code : seen)
      if (counts[code].n >= min_instances) ++viable;
    if (viable < 2) continue;

    // The order contract (induction.hpp): sum in the iteration order of a
    // map whose keys were inserted in first-occurrence order.
    std::unordered_map<std::uint32_t, std::uint32_t> by_value;
    for (const auto code : seen) by_value.emplace(values_[fi][code], code);
    double split_entropy = 0, split_info = 0;
    for (const auto& [value, code] : by_value) {
      const auto& c = counts[code];
      const double frac = static_cast<double>(c.n) / n;
      split_entropy += frac * entropy2(c.mal, static_cast<double>(c.n));
      split_info -= frac * std::log2(frac);
    }
    const double gain = base_entropy - split_entropy;
    if (gain <= 1e-9 || split_info <= 1e-9) continue;
    gain_sum += gain;
    candidates.push_back(
        {static_cast<features::Feature>(fi), gain, gain / split_info});
  }

  SplitChoice choice;
  if (!candidates.empty()) {
    const double avg_gain = gain_sum / static_cast<double>(candidates.size());
    double best_ratio = -1;
    for (const auto& cand : candidates) {
      if (cand.gain + 1e-12 < avg_gain) continue;
      if (cand.gain_ratio > best_ratio) {
        best_ratio = cand.gain_ratio;
        choice.found = true;
        choice.feature = cand.feature;
      }
    }
  }
  if (choice.found) {
    // Values enter the map in first-occurrence order, as inserting per
    // item would have them, so its iteration order is the same.
    const auto f = static_cast<std::size_t>(choice.feature);
    subsets_.resize(counts_[f].size());
    for (const auto code : seen_[f]) {
      auto& subset = choice.partitions[values_[f][code]];
      subset.items.reserve(counts_[f][code].n);
      subset.mal = counts_[f][code].mal;
      subsets_[code] = &subset;
    }
    for (const auto item : items)
      subsets_[codes_[item][f]]->items.push_back(item);
  }

  for (std::size_t f = 0; f < features::kNumFeatures; ++f) {
    for (const auto code : seen_[f]) counts_[f][code] = {};
    seen_[f].clear();
  }
  return choice;
}

}  // namespace longtail::rules::induction
