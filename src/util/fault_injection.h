#ifndef SMARTPSI_UTIL_FAULT_INJECTION_H_
#define SMARTPSI_UTIL_FAULT_INJECTION_H_

// Deterministic, seed-driven fault injection (DESIGN.md §11).
//
// A fault *site* is a named hook compiled into a production code path:
//
//   if (PSI_INJECT_FAULT(util::faults::kCacheLookupMiss)) {
//     return std::nullopt;  // simulate a cache miss
//   }
//   PSI_FAULT_STALL(util::faults::kServiceWorkerStall);  // maybe sleep
//
// Sites are dormant until a test (or `psi_loadgen --chaos`) arms them with
// a FaultSchedule: fail-the-Nth-hit, fail-every-Kth-hit, or probabilistic
// with a fixed per-site RNG. Every trigger decision is a pure function of
// (schedule, per-site hit count, per-site RNG state), so a chaos run
// replays exactly from its textual spec — no std::random_device anywhere.
//
// Builds configured with -DPSI_ENABLE_FAULT_INJECTION=OFF compile the hook
// macros to constant-false / nothing: production hot paths carry zero
// injection overhead (see bench_micro's BM_PredictionCacheLookup for the
// before/after check). The FaultInjector class itself always compiles so
// tests and tools link in both configurations; with the hooks compiled out
// an armed schedule simply never fires.
//
// Thread-safety: all FaultInjector methods are safe for concurrent use.
// The disarmed fast path is a single relaxed atomic load.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/fault_sites.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

#ifndef PSI_FAULT_INJECTION_ENABLED
#define PSI_FAULT_INJECTION_ENABLED 0
#endif

namespace psi::util {

// Canonical site names live in util/fault_sites.h (the machine-checked
// registry, re-exported here as util::faults::k*). Keeping them in one
// header (rather than as ad-hoc literals at call sites) gives chaos specs,
// tests, DESIGN.md §11 and tools/psi_check a single vocabulary to agree on.

/// When a site fires. Textual grammar (see FaultInjector::ArmFromSpec):
///
///   spec    := entry (',' entry)*
///   entry   := site '=' trigger ('@' stall_ms)?
///   trigger := 'nth:' N            fire exactly on the N-th hit (1-based)
///            | 'every:' K          fire on hits K, 2K, 3K, ...
///            | 'prob:' P (':' S)?  fire w.p. P, per-site RNG seeded S
///            | 'always'            fire on every hit
///            | 'off'               disarm the site
///
/// `stall_ms` only matters for stall sites (PSI_FAULT_STALL): it is how
/// long a firing stalls, in milliseconds.
struct FaultSchedule {
  enum class Trigger { kNth, kEveryK, kProbability, kAlways };

  Trigger trigger = Trigger::kAlways;
  /// kNth: the 1-based hit index that fires (once). kEveryK: the period.
  uint64_t n = 1;
  /// kProbability: fire chance per hit, in [0, 1].
  double probability = 0.0;
  /// kProbability: per-site RNG seed (fixed default keeps runs replayable).
  uint64_t seed = 0x0facade0facadeULL;
  /// Stall duration for PSI_FAULT_STALL sites; ignored elsewhere.
  double stall_ms = 1.0;

  static FaultSchedule Nth(uint64_t nth) {
    FaultSchedule s;
    s.trigger = Trigger::kNth;
    s.n = nth == 0 ? 1 : nth;
    return s;
  }
  static FaultSchedule EveryK(uint64_t k) {
    FaultSchedule s;
    s.trigger = Trigger::kEveryK;
    s.n = k == 0 ? 1 : k;
    return s;
  }
  static FaultSchedule WithProbability(uint64_t seed, double p) {
    FaultSchedule s;
    s.trigger = Trigger::kProbability;
    s.probability = p;
    s.seed = seed;
    return s;
  }
  static FaultSchedule Always() { return FaultSchedule(); }

  FaultSchedule& StallMs(double ms) {
    stall_ms = ms;
    return *this;
  }
};

/// Process-wide fault-site registry. Hooks consult Global(); tests and
/// tools arm/disarm it. All counters are monotonic since process start
/// (DisarmAll() does not reset them; they describe injected traffic).
class FaultInjector {
 public:
  struct SiteStats {
    uint64_t hits = 0;   // times an armed hook consulted the schedule
    uint64_t fires = 0;  // times it was told to fail
  };

  static FaultInjector& Global();

  /// Arms (or re-arms, resetting hit counts) a site. Thread-safe.
  void Arm(std::string_view site, FaultSchedule schedule);

  /// Disarms one site; hits/fires recorded so far stay in the totals.
  void Disarm(std::string_view site);

  /// Disarms every site (typical test teardown).
  void DisarmAll();

  /// Parses the schedule grammar documented on FaultSchedule and arms each
  /// entry. Returns the first parse error without arming anything.
  Status ArmFromSpec(std::string_view spec);

  /// Hook entry point (via PSI_INJECT_FAULT): true when `site` is armed and
  /// its schedule fires on this hit. Unarmed fast path: one relaxed load.
  bool ShouldFail(std::string_view site) {
    if (armed_sites_.load(std::memory_order_relaxed) == 0) return false;
    return ShouldFailSlow(site);
  }

  /// Hook entry point (via PSI_FAULT_STALL): sleeps the schedule's stall_ms
  /// when `site` is armed and fires. Never sleeps holding the registry lock.
  void MaybeStall(std::string_view site) {
    if (armed_sites_.load(std::memory_order_relaxed) == 0) return;
    MaybeStallSlow(site);
  }

  /// Stats for one armed site (zeros if not currently armed).
  SiteStats Stats(std::string_view site) const;

  /// (site, stats) for every currently armed site, sorted by site name.
  std::vector<std::pair<std::string, SiteStats>> AllStats() const;

  /// Total fires across all sites since process start, monotonic across
  /// Arm/Disarm cycles — the "injected faults" gauge services export.
  uint64_t TotalFires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

 private:
  struct Site {
    FaultSchedule schedule;
    uint64_t hits = 0;
    uint64_t fires = 0;
    Rng rng{0};
  };

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool ShouldFailSlow(std::string_view site);
  void MaybeStallSlow(std::string_view site);
  /// Evaluates the trigger for one hit, updating site state. Lock held.
  bool Fire(Site& site) PSI_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::unordered_map<std::string, Site, StringHash, std::equal_to<>> sites_
      PSI_GUARDED_BY(mutex_);
  /// Mirrors sites_.size() so the hot path can skip the lock entirely.
  std::atomic<uint64_t> armed_sites_{0};
  std::atomic<uint64_t> total_fires_{0};
};

/// Arms a spec on the global injector for the enclosing scope and disarms
/// *all* sites on destruction — the standard way tests install a chaos
/// schedule. Asserts the spec parses; use ArmFromSpec directly for
/// user-supplied strings.
class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(std::string_view spec) {
    const Status status = FaultInjector::Global().ArmFromSpec(spec);
    (void)status;
    assert(status.ok() && "bad fault spec literal");
  }
  ScopedFaultSpec(const ScopedFaultSpec&) = delete;
  ScopedFaultSpec& operator=(const ScopedFaultSpec&) = delete;
  ~ScopedFaultSpec() { FaultInjector::Global().DisarmAll(); }
};

}  // namespace psi::util

// The hooks. Compiled out entirely when PSI_ENABLE_FAULT_INJECTION=OFF so
// release binaries carry no trace of the injector on their hot paths.
#if PSI_FAULT_INJECTION_ENABLED
#define PSI_INJECT_FAULT(site) \
  (::psi::util::FaultInjector::Global().ShouldFail(site))
#define PSI_FAULT_STALL(site) \
  (::psi::util::FaultInjector::Global().MaybeStall(site))
#else
#define PSI_INJECT_FAULT(site) (false)
#define PSI_FAULT_STALL(site) ((void)0)
#endif

#endif  // SMARTPSI_UTIL_FAULT_INJECTION_H_
