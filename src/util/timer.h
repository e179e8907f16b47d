#ifndef SMARTPSI_UTIL_TIMER_H_
#define SMARTPSI_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace psi::util {

/// Monotonic wall-clock stopwatch. Starts running at construction.
class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;

  WallTimer() : start_(Clock::now()) {}

  /// Elapsed time in seconds since construction.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// A point in time after which work should stop. A default-constructed
/// Deadline is infinite (never expires). Deadlines compose with StopToken in
/// the search loops: both are polled every fixed number of search steps.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() : expiry_(Clock::time_point::max()) {}

  /// Expires `seconds` from now. Non-positive values expire immediately.
  static Deadline After(double seconds) {
    Deadline d;
    d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    return d;
  }

  bool Expired() const { return Clock::now() >= expiry_; }

  bool IsInfinite() const { return expiry_ == Clock::time_point::max(); }

  /// Seconds remaining; +inf for an infinite deadline, <= 0 when expired.
  double RemainingSeconds() const {
    if (IsInfinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expiry_ - Clock::now()).count();
  }

 private:
  Clock::time_point expiry_;
};

}  // namespace psi::util

#endif  // SMARTPSI_UTIL_TIMER_H_
