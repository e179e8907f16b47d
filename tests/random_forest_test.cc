#include "ml/random_forest.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ml/metrics.h"

namespace psi::ml {
namespace {

/// Two interleaved half-moon-ish blobs (not linearly separable).
Dataset MakeBlobs(size_t n, util::Rng& rng) {
  Dataset data(2);
  for (size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(2));
    const double angle = rng.NextDouble() * M_PI;
    const double radius = 1.0 + 0.15 * rng.NextGaussian();
    double x = std::cos(angle) * radius;
    double y = std::sin(angle) * radius;
    if (cls == 1) {
      x = 1.0 - x;
      y = 0.4 - y;
    }
    data.AddExample(
        std::vector<float>{static_cast<float>(x), static_cast<float>(y)},
        cls);
  }
  return data;
}

TEST(RandomForestTest, FitsNonlinearData) {
  util::Rng rng(1);
  const Dataset data = MakeBlobs(600, rng);
  RandomForest forest;
  ForestConfig config;
  config.num_trees = 25;
  forest.Train(data, 2, config, rng);
  ASSERT_TRUE(forest.trained());
  EXPECT_EQ(forest.num_trees(), 25u);

  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (forest.Predict(data.row(i)) == data.label(i)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.9);
}

TEST(RandomForestTest, GeneralizesToHeldOut) {
  util::Rng rng(2);
  const Dataset data = MakeBlobs(800, rng);
  const TrainTestSplit split = MakeTrainTestSplit(data.size(), 0.75, rng);
  RandomForest forest;
  forest.Train(data, split.train, 2, ForestConfig(), rng);
  std::vector<int32_t> predicted;
  std::vector<int32_t> actual;
  for (const size_t i : split.test) {
    predicted.push_back(forest.Predict(data.row(i)));
    actual.push_back(data.label(i));
  }
  EXPECT_GT(Accuracy(predicted, actual), 0.85);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  util::Rng rng_data(4);
  const Dataset data = MakeBlobs(300, rng_data);
  RandomForest a;
  RandomForest b;
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  a.Train(data, 2, ForestConfig(), rng_a);
  b.Train(data, 2, ForestConfig(), rng_b);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(a.Predict(data.row(i)), b.Predict(data.row(i)));
  }
}

TEST(RandomForestTest, MultiClassPrediction) {
  Dataset data(1);
  util::Rng rng(5);
  for (int i = 0; i < 90; ++i) {
    data.AddExample(std::vector<float>{static_cast<float>(i)},
                    i < 30 ? 0 : (i < 60 ? 1 : 2));
  }
  RandomForest forest;
  forest.Train(data, 3, ForestConfig(), rng);
  EXPECT_EQ(forest.Predict(std::vector<float>{10.0f}), 0);
  EXPECT_EQ(forest.Predict(std::vector<float>{45.0f}), 1);
  EXPECT_EQ(forest.Predict(std::vector<float>{80.0f}), 2);
  EXPECT_EQ(forest.num_classes(), 3u);
}

TEST(RandomForestTest, EmptyTrainingStillPredicts) {
  Dataset data(2);
  RandomForest forest;
  util::Rng rng(6);
  forest.Train(data, std::vector<size_t>{}, 2, ForestConfig(), rng);
  EXPECT_EQ(forest.Predict(std::vector<float>{0.0f, 0.0f}), 0);
}

TEST(RandomForestTest, SingleClassData) {
  Dataset data(1);
  util::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    data.AddExample(std::vector<float>{static_cast<float>(i)}, 1);
  }
  RandomForest forest;
  forest.Train(data, 2, ForestConfig(), rng);
  EXPECT_EQ(forest.Predict(std::vector<float>{5.0f}), 1);
}

}  // namespace
}  // namespace psi::ml
