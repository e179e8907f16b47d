#include "ml/dataset.h"

#include <algorithm>
#include <cassert>

namespace psi::ml {

void Dataset::AddExample(std::span<const float> features, int32_t label) {
  assert(features.size() == num_features_);
  assert(label >= 0);
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

TrainTestSplit MakeTrainTestSplit(size_t n, double train_fraction,
                                  util::Rng& rng) {
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  util::Shuffle(indices, rng);
  const size_t train_size = static_cast<size_t>(
      static_cast<double>(n) * std::clamp(train_fraction, 0.0, 1.0));
  TrainTestSplit split;
  split.train.assign(indices.begin(), indices.begin() + train_size);
  split.test.assign(indices.begin() + train_size, indices.end());
  return split;
}

}  // namespace psi::ml
