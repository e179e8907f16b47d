#ifndef SMARTPSI_UTIL_MUTEX_H_
#define SMARTPSI_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace psi::util {

/// std::mutex with Clang thread-safety-analysis attributes. Every mutex in
/// the codebase outside this header is one of these, so `-Wthread-safety`
/// can prove each PSI_GUARDED_BY field is only touched under its lock.
///
/// Prefer the RAII MutexLock; call Lock/Unlock directly only when a scope
/// cannot express the critical section.
class PSI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PSI_ACQUIRE() { mu_.lock(); }
  void Unlock() PSI_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII critical section over a Mutex (std::lock_guard with annotations).
class PSI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PSI_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PSI_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to the annotated Mutex. Waits require the mutex
/// held (checked under clang); the wait atomically releases and reacquires
/// it through the native handle, exactly like std::condition_variable with
/// std::unique_lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible; use the predicate
  /// overload unless the caller already loops).
  void Wait(Mutex& mu) PSI_REQUIRES(mu) {
    // Adopt the caller's hold so std::condition_variable can do its atomic
    // unlock-wait-relock dance, then release the unique_lock's ownership
    // claim: the caller still holds `mu` when we return, as the annotation
    // promises.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Blocks until `pred()` holds.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) PSI_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace psi::util

#endif  // SMARTPSI_UTIL_MUTEX_H_
