// Small statistics toolkit used by the analysis modules: empirical CDFs,
// histograms, and top-k counting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace longtail::util {

// Empirical CDF over double-valued samples.
class EmpiricalCdf {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_n(double x, std::size_t n) {
    samples_.insert(samples_.end(), n, x);
  }

  // Absorb another CDF's samples (order-insensitive: finalize() sorts).
  void merge(EmpiricalCdf&& other) {
    if (samples_.empty()) {
      samples_ = std::move(other.samples_);
      return;
    }
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  // Must be called after all add()s and before queries.
  void finalize() { std::sort(samples_.begin(), samples_.end()); }

  // Fraction of samples <= x. Requires finalize().
  [[nodiscard]] double at(double x) const {
    if (samples_.empty()) return 0.0;
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
  }

  // p in [0,1] -> value at that quantile. Requires finalize().
  [[nodiscard]] double quantile(double p) const {
    if (samples_.empty()) return 0.0;
    const double pos = p * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  // Equal when both hold the same samples (compare finalized CDFs).
  friend bool operator==(const EmpiricalCdf&, const EmpiricalCdf&) = default;

  // Series of (x, cdf(x)) at the given x grid — convenient for printing
  // figure reproductions.
  [[nodiscard]] std::vector<std::pair<double, double>> series(
      const std::vector<double>& grid) const {
    std::vector<std::pair<double, double>> out;
    out.reserve(grid.size());
    for (double x : grid) out.emplace_back(x, at(x));
    return out;
  }

 private:
  std::vector<double> samples_;
};

// Counts occurrences of keys and reports the top-k.
template <typename Key>
class TopK {
 public:
  void add(const Key& k, std::uint64_t n = 1) { counts_[k] += n; }

  // Absorb another counter (commutative; top() sorts deterministically).
  void merge(const TopK& other) {
    for (const auto& [k, n] : other.counts_) counts_[k] += n;
  }

  [[nodiscard]] std::vector<std::pair<Key, std::uint64_t>> top(
      std::size_t k) const {
    std::vector<std::pair<Key, std::uint64_t>> v(counts_.begin(),
                                                 counts_.end());
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;  // deterministic tie-break
    });
    if (v.size() > k) v.resize(k);
    return v;
  }

  [[nodiscard]] std::uint64_t count(const Key& k) const {
    auto it = counts_.find(k);
    return it == counts_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::size_t distinct() const noexcept { return counts_.size(); }

  [[nodiscard]] const std::unordered_map<Key, std::uint64_t>& raw() const {
    return counts_;
  }

 private:
  std::unordered_map<Key, std::uint64_t> counts_;
};

inline double percent(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace longtail::util
