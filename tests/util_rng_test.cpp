#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace longtail::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

// A substream is a pure function of (seed, salt, index), and its siblings
// diverge from each other and from the other salts' streams.
TEST(Rng, SubstreamsAreIndependent) {
  Rng again = substream(7, 0x5A17, 1);
  Rng s1 = substream(7, 0x5A17, 1);
  Rng s2 = substream(7, 0x5A17, 2);
  Rng other_salt = substream(7, 0x5A18, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = s1.next_u64();
    EXPECT_EQ(again.next_u64(), v);
    same += v == s2.next_u64();
    same += v == other_salt.next_u64();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(5);
  std::array<int, 8> seen{};
  for (int i = 0; i < 10000; ++i) ++seen[rng.uniform(8)];
  for (int count : seen) EXPECT_GT(count, 1000);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 100000, 5.0, 0.15);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(23);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(DiscreteSampler, MatchesWeights) {
  Rng rng(41);
  const std::vector<double> w = {5.0, 1.0, 0.0, 4.0};
  DiscreteSampler sampler(w);
  std::array<int, 4> seen{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++seen[sampler.sample(rng)];
  EXPECT_EQ(seen[2], 0);
  EXPECT_NEAR(seen[0] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(seen[1] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(seen[3] / static_cast<double>(n), 0.4, 0.01);
}

TEST(DiscreteSampler, SingleElement) {
  Rng rng(43);
  const std::vector<double> w = {2.5};
  DiscreteSampler sampler(w);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, DegenerateAllZeroFallsBackToUniform) {
  Rng rng(47);
  const std::vector<double> w = {0.0, 0.0, 0.0};
  DiscreteSampler sampler(w);
  std::array<int, 3> seen{};
  for (int i = 0; i < 30000; ++i) ++seen[sampler.sample(rng)];
  for (int c : seen) EXPECT_GT(c, 8000);
}

}  // namespace
}  // namespace longtail::util
