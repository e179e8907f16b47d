#ifndef SMARTPSI_ML_DATASET_H_
#define SMARTPSI_ML_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/random.h"

namespace psi::ml {

/// Row-major feature matrix with integer class labels. In SmartPSI the rows
/// are neighborhood-signature vectors (§4.2.1: "each label in the
/// neighborhood signature represents a feature").
class Dataset {
 public:
  explicit Dataset(size_t num_features) : num_features_(num_features) {}

  void Reserve(size_t rows) {
    features_.reserve(rows * num_features_);
    labels_.reserve(rows);
  }

  /// Appends one example; `features.size()` must equal num_features().
  void AddExample(std::span<const float> features, int32_t label);

  size_t size() const { return labels_.size(); }
  size_t num_features() const { return num_features_; }

  std::span<const float> row(size_t i) const {
    return {features_.data() + i * num_features_, num_features_};
  }
  int32_t label(size_t i) const { return labels_[i]; }

 private:
  size_t num_features_;
  std::vector<float> features_;
  std::vector<int32_t> labels_;
};

/// Splits [0, n) into disjoint (train, test) index sets with
/// |train| ≈ train_fraction * n, shuffled by `rng`.
struct TrainTestSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

TrainTestSplit MakeTrainTestSplit(size_t n, double train_fraction,
                                  util::Rng& rng);

}  // namespace psi::ml

#endif  // SMARTPSI_ML_DATASET_H_
