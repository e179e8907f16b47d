#ifndef SMARTPSI_ML_METRICS_H_
#define SMARTPSI_ML_METRICS_H_

#include <cstdint>
#include <span>

namespace psi::ml {

/// Fraction of positions where predicted == actual (0 for empty input).
double Accuracy(std::span<const int32_t> predicted,
                std::span<const int32_t> actual);

}  // namespace psi::ml

#endif  // SMARTPSI_ML_METRICS_H_
