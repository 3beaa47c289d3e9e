#include "util/zipf.hpp"

#include <cassert>
#include <cmath>

namespace longtail::util {

namespace {
// helper(x) = (exp(x) - 1) / x, numerically stable near 0.
double expm1_over_x(double x) noexcept {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x / 3.0);
}

// helper(x) = log1p(x) / x, numerically stable near 0.
double log1p_over_x(double x) noexcept {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x / 3.0);
}
}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s > 0.0);
  // Constants per Hörmann & Derflinger: the sampling interval for the
  // H-integral includes a unit shift that carries the point mass at k = 1,
  // and the fast-acceptance threshold compares against
  // 2 - H⁻¹(H(2.5) - h(2)).
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  h_x1_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

// H(x) = integral of 1/t^s from 1 to x (plus constant), per Hörmann &
// Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions" (1996).
double ZipfSampler::h_integral(double x) const noexcept {
  const double log_x = std::log(x);
  return expm1_over_x((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::h_integral_inverse(double x) const noexcept {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // guard rounding
  return std::exp(log1p_over_x(t) * x);
}

double ZipfSampler::h(double x) const noexcept {
  return std::exp(-s_ * std::log(x));
}

std::uint64_t ZipfSampler::sample(Rng& rng) const noexcept {
  if (n_ == 1) return 1;
  while (true) {
    const double u =
        h_integral_n_ + rng.uniform01() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1)
      k = 1;
    else if (k > n_)
      k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= h_x1_ || u >= h_integral(kd + 0.5) - h(kd)) return k;
  }
}

}  // namespace longtail::util
