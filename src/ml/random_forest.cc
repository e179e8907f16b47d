#include "ml/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace psi::ml {

void RandomForest::Train(const Dataset& data, size_t num_classes,
                         const ForestConfig& config, util::Rng& rng) {
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Train(data, all, num_classes, config, rng);
}

void RandomForest::Train(const Dataset& data,
                         std::span<const size_t> indices, size_t num_classes,
                         const ForestConfig& config, util::Rng& rng) {
  assert(num_classes >= 1);
  num_classes_ = num_classes;
  trees_.assign(config.num_trees, DecisionTree());

  TreeConfig tree_config = config.tree;
  if (tree_config.features_per_split == 0) {
    tree_config.features_per_split = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(std::sqrt(static_cast<double>(
                   data.num_features())))));
  }

  if (indices.empty()) {
    for (auto& tree : trees_) {
      tree.Train(data, {}, num_classes, tree_config, rng);
    }
    return;
  }

  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(indices.size()) *
                             config.bootstrap_fraction));
  std::vector<size_t> bootstrap(sample_size);
  for (auto& tree : trees_) {
    for (size_t i = 0; i < sample_size; ++i) {
      bootstrap[i] = indices[rng.NextBounded(indices.size())];
    }
    tree.Train(data, bootstrap, num_classes, tree_config, rng);
  }
}

int32_t RandomForest::Predict(std::span<const float> features) const {
  assert(trained());
  // Stack buffer for the common case — Predict is the per-candidate hot
  // path of SmartPSI and must not allocate.
  constexpr size_t kStackClasses = 16;
  double stack_votes[kStackClasses] = {};
  std::vector<double> heap_votes;
  std::span<double> votes;
  if (num_classes_ <= kStackClasses) {
    votes = {stack_votes, num_classes_};
  } else {
    heap_votes.assign(num_classes_, 0.0);
    votes = heap_votes;
  }
  for (const auto& tree : trees_) tree.AccumulateVotes(features, votes);
  return static_cast<int32_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace psi::ml
