#ifndef SMARTPSI_UTIL_STOP_TOKEN_H_
#define SMARTPSI_UTIL_STOP_TOKEN_H_

#include <atomic>

namespace psi::util {

/// Cooperative cancellation flag shared between an initiator and one or more
/// workers. Used by the two-threaded baseline (the winning thread stops the
/// loser) and by deadline enforcement in the preemptive executor.
///
/// The flag is monotonic: once requested, a stop cannot be rescinded except
/// via Reset(), which must only be called when no worker is observing the
/// token.
///
/// Memory-ordering contract
/// ------------------------
/// RequestStop() is a release store and StopRequested() an acquire load, so
/// they form a synchronizes-with pair: every write the initiator made
/// *before* requesting the stop (a published race result, a response
/// status, a shutdown reason) is visible to any worker *after* it observes
/// StopRequested() == true. Workers may therefore read such state without
/// further synchronization once they have seen the stop.
///
/// The reverse direction is deliberately unordered: a worker's writes are
/// NOT published to the initiator by polling the flag — joining the worker
/// (or another release/acquire edge, e.g. a mutex or promise) is still
/// required before inspecting its results.
///
/// Reset() is relaxed because its precondition (quiescence: no concurrent
/// observer) already rules out any race the ordering could fix.
class StopSource {
 public:
  StopSource() : stop_(false) {}

  StopSource(const StopSource&) = delete;
  StopSource& operator=(const StopSource&) = delete;

  void RequestStop() { stop_.store(true, std::memory_order_release); }

  bool StopRequested() const { return stop_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> stop_;
};

/// Lightweight view over a StopSource (or over nothing, in which case it
/// never reports a stop). Cheap to copy into recursive search frames.
class StopToken {
 public:
  /// A token that never stops.
  StopToken() : source_(nullptr) {}

  explicit StopToken(const StopSource* source) : source_(source) {}

  /// Inherits the acquire semantics of StopSource::StopRequested().
  bool StopRequested() const {
    return source_ != nullptr && source_->StopRequested();
  }

 private:
  const StopSource* source_;
};

}  // namespace psi::util

#endif  // SMARTPSI_UTIL_STOP_TOKEN_H_
