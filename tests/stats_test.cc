#include "util/stats.h"

#include <gtest/gtest.h>

namespace psi::util {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.5);
}

TEST(QuantileTest, EmptyReturnsZero) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(FormatDurationTest, PaperStyleUnits) {
  EXPECT_EQ(FormatDuration(-1.0), "NA");
  EXPECT_EQ(FormatDuration(0.0271), "27 ms");
  EXPECT_EQ(FormatDuration(27.0), "27.0 sec");
  EXPECT_EQ(FormatDuration(150.0), "2.5 min");
  EXPECT_EQ(FormatDuration(5.4 * 3600.0), "5.4 hrs");
}

}  // namespace
}  // namespace psi::util
