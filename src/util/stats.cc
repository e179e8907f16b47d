#include "util/stats.h"

#include <algorithm>
#include <cstdio>

namespace psi::util {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::string FormatDuration(double seconds) {
  char buf[64];
  if (seconds < 0.0) return "NA";
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1f sec", seconds);
  } else if (seconds < 7200.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f hrs", seconds / 3600.0);
  }
  return buf;
}

}  // namespace psi::util
