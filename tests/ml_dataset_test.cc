#include "ml/dataset.h"

#include <set>

#include <gtest/gtest.h>

namespace psi::ml {
namespace {

TEST(DatasetTest, AddAndAccess) {
  Dataset data(3);
  data.AddExample(std::vector<float>{1.0f, 2.0f, 3.0f}, 0);
  data.AddExample(std::vector<float>{4.0f, 5.0f, 6.0f}, 1);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.num_features(), 3u);
  EXPECT_FLOAT_EQ(data.row(0)[1], 2.0f);
  EXPECT_FLOAT_EQ(data.row(1)[2], 6.0f);
  EXPECT_EQ(data.label(0), 0);
  EXPECT_EQ(data.label(1), 1);
}

TEST(TrainTestSplitTest, DisjointAndComplete) {
  util::Rng rng(3);
  const TrainTestSplit split = MakeTrainTestSplit(100, 0.7, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  std::set<size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(TrainTestSplitTest, ExtremeFractions) {
  util::Rng rng(4);
  EXPECT_EQ(MakeTrainTestSplit(10, 0.0, rng).train.size(), 0u);
  EXPECT_EQ(MakeTrainTestSplit(10, 1.0, rng).train.size(), 10u);
  EXPECT_EQ(MakeTrainTestSplit(10, 2.0, rng).train.size(), 10u);  // clamped
}

TEST(TrainTestSplitTest, Shuffled) {
  util::Rng rng(5);
  const TrainTestSplit split = MakeTrainTestSplit(50, 0.5, rng);
  // The train half should not simply be 0..24.
  bool is_prefix = true;
  for (size_t i = 0; i < split.train.size(); ++i) {
    if (split.train[i] != i) {
      is_prefix = false;
      break;
    }
  }
  EXPECT_FALSE(is_prefix);
}

}  // namespace
}  // namespace psi::ml
