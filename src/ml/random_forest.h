#ifndef SMARTPSI_ML_RANDOM_FOREST_H_
#define SMARTPSI_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "util/random.h"

namespace psi::ml {

struct ForestConfig {
  size_t num_trees = 32;
  /// Bootstrap-sample size as a fraction of the training set.
  double bootstrap_fraction = 1.0;
  TreeConfig tree;
};

/// Random Forest classifier (Breiman 2001) — the learner SmartPSI trains
/// on-the-fly for node-type prediction (Model α, binary) and plan selection
/// (Model β, multi-class). Bagged CART trees with sqrt(F) feature
/// subsampling per split; prediction by soft majority vote.
class RandomForest {
 public:
  /// Trains on the full dataset. `num_classes` must cover all labels.
  void Train(const Dataset& data, size_t num_classes,
             const ForestConfig& config, util::Rng& rng);

  /// Trains on a subset of rows.
  void Train(const Dataset& data, std::span<const size_t> indices,
             size_t num_classes, const ForestConfig& config, util::Rng& rng);

  int32_t Predict(std::span<const float> features) const;

  size_t num_trees() const { return trees_.size(); }
  size_t num_classes() const { return num_classes_; }
  bool trained() const { return !trees_.empty(); }

 private:
  size_t num_classes_ = 0;
  std::vector<DecisionTree> trees_;
};

}  // namespace psi::ml

#endif  // SMARTPSI_ML_RANDOM_FOREST_H_
