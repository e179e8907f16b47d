#ifndef SMARTPSI_UTIL_STATS_H_
#define SMARTPSI_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace psi::util {

/// Streaming accumulator for count / mean / min / max (running mean).
/// Used to track per-(method, plan) average evaluation times for the
/// preemptive executor's MaxTime computation, and for bench reporting.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the q-th quantile (0 <= q <= 1) of `values` using linear
/// interpolation. Sorts a copy; fine for bench-sized inputs.
double Quantile(std::vector<double> values, double q);

/// Formats seconds the way the paper prints them: "27 sec", "4.3 min",
/// "2.4 hrs", or "NA" for negative values (used for censored runs).
std::string FormatDuration(double seconds);

}  // namespace psi::util

#endif  // SMARTPSI_UTIL_STATS_H_
