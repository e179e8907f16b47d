#include "ml/metrics.h"

#include <cassert>

namespace psi::ml {

double Accuracy(std::span<const int32_t> predicted,
                std::span<const int32_t> actual) {
  assert(predicted.size() == actual.size());
  if (predicted.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == actual[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

}  // namespace psi::ml
