#ifndef SMARTPSI_UTIL_THREAD_ANNOTATIONS_H_
#define SMARTPSI_UTIL_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis attributes (-Wthread-safety), compiled away
// on toolchains without the attribute so GCC builds see plain code.
//
// The annotations turn locking conventions into compiler-checked contracts:
//   * a field tagged PSI_GUARDED_BY(mu) may only be touched while `mu` is
//     held — the build breaks otherwise;
//   * a function tagged PSI_REQUIRES(mu) may only be called with `mu` held;
//   * PSI_ACQUIRE/PSI_RELEASE describe lock-managing functions themselves.
//
// Use the annotated psi::util::Mutex / MutexLock / CondVar wrappers
// (util/mutex.h) rather than std::mutex so the analysis can see every
// acquisition. See DESIGN.md §10 for the locking map of the codebase and
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for attribute
// semantics.

#if defined(__clang__) && !defined(SWIG)
#define PSI_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PSI_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

// --- Data annotations -----------------------------------------------------

/// Field may only be read or written while the given capability is held.
#define PSI_GUARDED_BY(x) PSI_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* is protected by the given capability (the
/// pointer itself is not).
#define PSI_PT_GUARDED_BY(x) PSI_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering edge: this mutex must be acquired after the named ones.
#define PSI_ACQUIRED_AFTER(...) PSI_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Lock-ordering edge: this mutex must be acquired before the named ones.
#define PSI_ACQUIRED_BEFORE(...) \
  PSI_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

// --- Function annotations -------------------------------------------------

/// Caller must hold the capability (exclusively) for the duration.
#define PSI_REQUIRES(...) \
  PSI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must hold the capability at least shared.
#define PSI_REQUIRES_SHARED(...) \
  PSI_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and returns holding it.
#define PSI_ACQUIRE(...) PSI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability before returning.
#define PSI_RELEASE(...) PSI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT already hold the capability (deadlock guard for
/// self-locking member functions).
#define PSI_EXCLUDES(...) PSI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the mutex guarding its result.
#define PSI_RETURN_CAPABILITY(x) PSI_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code whose locking the analysis cannot follow (e.g. the
/// CondVar internals that juggle the native handle). Use sparingly and
/// leave a comment saying why.
#define PSI_NO_THREAD_SAFETY_ANALYSIS \
  PSI_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- Type annotations -----------------------------------------------------

/// Marks a class as a lockable capability (e.g. a mutex wrapper).
#define PSI_CAPABILITY(x) PSI_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime equals a critical section.
#define PSI_SCOPED_CAPABILITY PSI_THREAD_ANNOTATION(scoped_lockable)

#endif  // SMARTPSI_UTIL_THREAD_ANNOTATIONS_H_
