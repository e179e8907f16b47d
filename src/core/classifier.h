#ifndef SMARTPSI_CORE_CLASSIFIER_H_
#define SMARTPSI_CORE_CLASSIFIER_H_

#include <cstdint>
#include <span>
#include <variant>

#include "ml/dataset.h"
#include "ml/linear_svm.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "util/random.h"

namespace psi::core {

/// Which learner backs SmartPSI's Models α and β. The paper uses Random
/// Forest (best accuracy and build time in its §5.4 comparison) and notes
/// that other classifiers are orthogonal — this enum makes that knob real.
enum class ClassifierKind {
  kRandomForest,
  kLinearSvm,
  kNeuralNet,
};

/// Classifier-kind-erased wrapper with the minimal Train/Predict surface
/// the engine needs. Exactness never depends on the learner: a worse model
/// costs time (recoveries), not correctness.
class Classifier {
 public:
  explicit Classifier(ClassifierKind kind);

  /// `hint_trees` sizes the Random Forest; ignored by the other kinds.
  void Train(const ml::Dataset& data, size_t num_classes, size_t hint_trees,
             util::Rng& rng);

  int32_t Predict(std::span<const float> features) const;

  bool trained() const;
  ClassifierKind kind() const { return kind_; }

 private:
  ClassifierKind kind_;
  std::variant<ml::RandomForest, ml::LinearSvm, ml::NeuralNet> model_;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_CLASSIFIER_H_
