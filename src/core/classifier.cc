#include "core/classifier.h"

namespace psi::core {

Classifier::Classifier(ClassifierKind kind) : kind_(kind) {
  switch (kind) {
    case ClassifierKind::kRandomForest:
      model_.emplace<ml::RandomForest>();
      break;
    case ClassifierKind::kLinearSvm:
      model_.emplace<ml::LinearSvm>();
      break;
    case ClassifierKind::kNeuralNet:
      model_.emplace<ml::NeuralNet>();
      break;
  }
}

void Classifier::Train(const ml::Dataset& data, size_t num_classes,
                       size_t hint_trees, util::Rng& rng) {
  switch (kind_) {
    case ClassifierKind::kRandomForest: {
      ml::ForestConfig config;
      config.num_trees = hint_trees;
      std::get<ml::RandomForest>(model_).Train(data, num_classes, config,
                                               rng);
      break;
    }
    case ClassifierKind::kLinearSvm:
      std::get<ml::LinearSvm>(model_).Train(data, num_classes,
                                            ml::SvmConfig(), rng);
      break;
    case ClassifierKind::kNeuralNet:
      std::get<ml::NeuralNet>(model_).Train(data, num_classes,
                                            ml::MlpConfig(), rng);
      break;
  }
}

int32_t Classifier::Predict(std::span<const float> features) const {
  return std::visit([&](const auto& model) { return model.Predict(features); },
                    model_);
}

bool Classifier::trained() const {
  return std::visit([](const auto& model) { return model.trained(); },
                    model_);
}

}  // namespace psi::core
