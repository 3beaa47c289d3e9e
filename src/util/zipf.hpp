// Bounded Zipf (power-law) sampling.
//
// The paper's headline observation is a *long tail*: almost 90% of
// downloaded files have prevalence 1 (Fig. 2). We model per-file prevalence
// and domain popularity with bounded Zipf distributions, sampled via
// Hörmann's rejection-inversion method, which is O(1) per draw and needs no
// per-element table, so it scales to millions of ranks.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace longtail::util {

// Samples ranks k in [1, n] with P(k) proportional to 1 / k^s.
class ZipfSampler {
 public:
  // n >= 1, s > 0 (s != 1 handled; s == 1 handled via the log branch).
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t sample(Rng& rng) const noexcept;

 private:
  [[nodiscard]] double h_integral(double x) const noexcept;
  [[nodiscard]] double h_integral_inverse(double x) const noexcept;
  [[nodiscard]] double h(double x) const noexcept;

  std::uint64_t n_;
  double s_;
  double h_x1_;            // fast-acceptance threshold 2 - H^-1(H(2.5) - h(2))
  double h_integral_x1_;   // H(1.5) - 1 (carries the point mass at k = 1)
  double h_integral_n_;    // H(n + 0.5)
};

}  // namespace longtail::util
