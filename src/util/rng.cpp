#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <numbers>

namespace longtail::util {

double Rng::normal(double mu, double sigma) noexcept {
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mu + sigma * mag * std::cos(2.0 * std::numbers::pi * u2);
}

DiscreteSampler::DiscreteSampler(std::span<const double> weights) {
  const std::size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  if (n == 0) return;

  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) {
    // Degenerate: fall back to uniform.
    std::fill(prob_.begin(), prob_.end(), 1.0);
    for (std::size_t i = 0; i < n; ++i)
      alias_[i] = static_cast<std::uint32_t>(i);
    return;
  }

  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t DiscreteSampler::sample(Rng& rng) const noexcept {
  assert(!prob_.empty());
  const std::size_t i = rng.uniform(prob_.size());
  return rng.uniform01() < prob_[i] ? i : alias_[i];
}

}  // namespace longtail::util
