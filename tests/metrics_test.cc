#include "ml/metrics.h"

#include <vector>

#include <gtest/gtest.h>

namespace psi::ml {
namespace {

TEST(AccuracyTest, Basic) {
  const std::vector<int32_t> predicted{0, 1, 1, 0};
  const std::vector<int32_t> actual{0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Accuracy(predicted, actual), 0.75);
}

TEST(AccuracyTest, EmptyIsZero) {
  EXPECT_EQ(Accuracy({}, {}), 0.0);
}

}  // namespace
}  // namespace psi::ml
