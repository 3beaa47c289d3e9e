#include "util/zipf.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <vector>

namespace longtail::util {
namespace {

TEST(Zipf, SamplesWithinRange) {
  Rng rng(1);
  ZipfSampler z(100, 1.2);
  for (int i = 0; i < 10000; ++i) {
    const auto k = z.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
  }
}

TEST(Zipf, SingleElementAlwaysOne) {
  Rng rng(2);
  ZipfSampler z(1, 2.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 1u);
}

TEST(Zipf, RankOneIsMostFrequent) {
  Rng rng(3);
  ZipfSampler z(50, 1.5);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], counts[20]);
}

TEST(Zipf, FrequencyRatioMatchesExponent) {
  Rng rng(5);
  const double s = 2.0;
  ZipfSampler z(1000, s);
  std::map<std::uint64_t, int> counts;
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  // P(1)/P(2) should be 2^s = 4.
  const double ratio =
      static_cast<double>(counts[1]) / static_cast<double>(counts[2]);
  EXPECT_NEAR(ratio, std::pow(2.0, s), 0.4);
}

TEST(Zipf, HighExponentConcentratesOnRankOne) {
  Rng rng(7);
  // s = 4 over a large domain: ~92% of mass on rank 1 — the "90% of files
  // have prevalence 1" regime of the paper's Fig. 2.
  ZipfSampler z(100000, 4.0);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += z.sample(rng) == 1;
  EXPECT_GT(ones / static_cast<double>(n), 0.88);
  EXPECT_LT(ones / static_cast<double>(n), 0.96);
}

TEST(Zipf, LargeDomainSamplesAreValid) {
  Rng rng(11);
  ZipfSampler z(2'000'000, 1.1);
  for (int i = 0; i < 10000; ++i) {
    const auto k = z.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 2'000'000u);
  }
}

TEST(Zipf, ExponentOneIsSupported) {
  Rng rng(13);
  ZipfSampler z(100, 1.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(rng)];
  const double ratio =
      static_cast<double>(counts[1]) / static_cast<double>(counts[2]);
  EXPECT_NEAR(ratio, 2.0, 0.3);
}

class ZipfSweep : public ::testing::TestWithParam<double> {};

// Property: across exponents, sampling never escapes [1, n] and the
// empirical CDF of the draws follows the exact bounded-Zipf CDF.
TEST_P(ZipfSweep, CdfAndBoundsHold) {
  const double s = GetParam();
  Rng rng(17);
  constexpr std::uint64_t n = 500;
  ZipfSampler z(n, s);
  std::vector<double> mass(n + 1, 0.0);  // mass[k] = sum of j^-s, j <= k
  for (std::uint64_t k = 1; k <= n; ++k)
    mass[k] = mass[k - 1] + std::pow(static_cast<double>(k), -s);
  constexpr int kDraws = 2000;
  std::vector<int> drawn(n + 1, 0);
  for (int i = 0; i < kDraws; ++i) {
    const auto k = z.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, n);
    ++drawn[k];
  }
  int at_most = 0;
  std::uint64_t next = 1;
  for (std::uint64_t k : {1ull, 2ull, 5ull, 10ull, 100ull, 500ull}) {
    for (; next <= k; ++next) at_most += drawn[next];
    // 0.05 is over four standard errors of a 2000-draw proportion.
    EXPECT_NEAR(at_most / static_cast<double>(kDraws), mass[k] / mass[n],
                0.05)
        << "k = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSweep,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 1.7, 2.5, 3.5,
                                           4.5));

}  // namespace
}  // namespace longtail::util
