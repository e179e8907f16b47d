#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"

namespace psi::util {
namespace {

// Statistical tests derive their seed through psi::testing::TestSeed, so a
// failure logs the seed that produced it and PSI_TEST_SEED=<n> replays the
// binary under that seed. The determinism tests keep literal seeds — they
// assert a property of *every* seed, so the value is irrelevant.

TEST(SplitMix64Test, DeterministicStream) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a(), b());
}

TEST(RngTest, DeterministicStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  const uint64_t seed = psi::testing::TestSeed(7);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  const uint64_t seed = psi::testing::TestSeed(7, 1);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, BoundedCoversAllValues) {
  const uint64_t seed = psi::testing::TestSeed(9);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  const uint64_t seed = psi::testing::TestSeed(13);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolProbability) {
  const uint64_t seed = psi::testing::TestSeed(17);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(heads / 20000.0, 0.25, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, GaussianMoments) {
  const uint64_t seed = psi::testing::TestSeed(19);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  const uint64_t seed = psi::testing::TestSeed(23);
  PSI_LOG_TEST_SEED(seed);
  Rng parent(seed);
  Rng child = parent.Fork();
  // Not a rigorous independence test — just that they differ.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(ZipfSamplerTest, UniformWhenExponentZero) {
  const uint64_t seed = psi::testing::TestSeed(29);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
}

TEST(ZipfSamplerTest, SkewPrefersSmallIndices) {
  const uint64_t seed = psi::testing::TestSeed(31);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  ZipfSampler zipf(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(ZipfSamplerTest, SingleElement) {
  const uint64_t seed = psi::testing::TestSeed(37);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ShuffleTest, IsPermutation) {
  const uint64_t seed = psi::testing::TestSeed(41);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = items;
  Shuffle(items, rng);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(ShuffleTest, ActuallyShuffles) {
  const uint64_t seed = psi::testing::TestSeed(43);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;
  const std::vector<int> original = items;
  Shuffle(items, rng);
  EXPECT_NE(items, original);
}

TEST(SampleWithoutReplacementTest, ExactSizeAndDistinct) {
  const uint64_t seed = psi::testing::TestSeed(47);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  const auto sample = SampleWithoutReplacement(100, 30, rng);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (const size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(SampleWithoutReplacementTest, KAtLeastNReturnsAll) {
  const uint64_t seed = psi::testing::TestSeed(53);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  const auto sample = SampleWithoutReplacement(10, 10, rng);
  EXPECT_EQ(sample.size(), 10u);
  const auto bigger = SampleWithoutReplacement(10, 100, rng);
  EXPECT_EQ(bigger.size(), 10u);
}

TEST(SampleWithoutReplacementTest, UniformCoverage) {
  const uint64_t seed = psi::testing::TestSeed(59);
  PSI_LOG_TEST_SEED(seed);
  Rng rng(seed);
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    for (const size_t s : SampleWithoutReplacement(20, 5, rng)) ++counts[s];
  }
  // Each element is expected 4000 * 5/20 = 1000 times.
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

}  // namespace
}  // namespace psi::util
