#ifndef SMARTPSI_CORE_SMART_PSI_H_
#define SMARTPSI_CORE_SMART_PSI_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/prediction_cache.h"
#include "core/psi_result.h"
#include "graph/graph.h"
#include "graph/query_graph.h"
#include "match/search_scratch.h"
#include "signature/signature_matrix.h"
#include "util/random.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace psi::core {

/// The Realist (paper §4): SmartPSI's query engine.
///
/// Construction loads the graph signatures (matrix-based by default). Each
/// Evaluate() call then:
///   1. extracts the candidate pivot bindings and looks every one of them up
///      in the signature-keyed prediction cache (cache-first),
///   2. if the cache misses number at least min_candidates_for_ml, evaluates
///      a small random sample of the misses with the pessimistic method to
///      label training data, racing a pool of execution plans per node
///      under escalating step limits. The sample draw (10%, capped) is a
///      ceiling: training stops early once it has cost kTrainingShare of
///      the query's estimated work, and the untried nodes go to step 4,
///      and
///   3. trains Model α (valid/invalid Random Forest) and Model β
///      (best-plan Random Forest) on the neighborhood-signature features;
///      with fewer misses it fits no model and evaluates the misses
///      pessimistically with the heuristic plan and no MaxTime,
///   4. evaluates every other candidate with the cached or predicted
///      method and plan under the preemptive 3-state detection-and-recovery
///      executor (MaxTime = 2 × AvgT for predictions, 2 × the confirming
///      run's steps for cache hits, never below 2 × kMinPreemptionSteps),
///   5. returns the exact set of valid nodes with full instrumentation.
///
/// Every decision counts search steps (PsiEvaluator::steps()), not wall
/// time, so plan races, recovery states and cache entries do not vary with
/// host load. Only the caller's deadline is wall-clock.
///
/// Exactness does not depend on the models: both PSI methods explore the
/// complete search space in the worst case, so a misprediction costs time,
/// never correctness.
///
/// Thread-safe for concurrent Evaluate() calls only if config.num_threads
/// == 1 and enable_cache == false; otherwise evaluate queries one at a time
/// (the engine's internal pool already parallelizes within a query).
class SmartPsiEngine {
 public:
  /// Training budget: phase 1 stops before its next node once its steps
  /// reach kTrainingShare × (mean best-plan steps per trained node) × cache
  /// misses, i.e. this share of what evaluating every miss with its best
  /// plan would cost. A perfbench sweep over {0.1, 0.15, 0.2} (EXPERIMENTS.md,
  /// "Budgeted Realist training") chose 0.15: 0.1 raised serve-hot p99 by a
  /// median 24 %, and 0.2 cut serve-cold-swap p50 the least.
  static constexpr double kTrainingShare = 0.15;
  /// Nodes trained before the budget is first checked (fewer when the
  /// sample draw itself is smaller): the models never fit on less.
  static constexpr size_t kMinTrainingNodes = 4;
  /// Hard cap on the sample draw (paper §5.2 uses 1000 nodes). The
  /// kTrainingShare budget normally stops training well before it.
  static constexpr size_t kMaxTrainNodes = 1000;
  /// Plans in Model β's pool: the heuristic plan plus random plans.
  static constexpr size_t kPlanPoolSize = 4;
  /// Phase 1 races every pool plan under a per-plan step limit that grows
  /// ×kPlanStepLimitGrowth per round, for at most kPlanEscalationRounds
  /// rounds, until some plan finishes (paper §4.2.2: "gradually
  /// increased"); later competitors are capped at the best plan's steps.
  /// 1.65M steps is the former 10 ms limit at ~165 steps/µs: traced
  /// serve-cold-swap scanned 4.09M neighbours in 6.0k Search calls per
  /// query in 24.8 ms of pessimistic evaluation (4-vCPU VM, Release; a
  /// re-run read 155 steps/µs, EXPERIMENTS.md, "One cost unit").
  static constexpr uint64_t kPlanStepLimitInit = 1'650'000;
  static constexpr uint64_t kPlanStepLimitGrowth = 4;
  static constexpr size_t kPlanEscalationRounds = 3;
  /// MaxTime = kTimeoutFactor × max(AvgT, kMinPreemptionSteps) steps (paper
  /// §4.3: 2 × AvgT). The floor is the former 1 ms at ~165 steps/µs; without
  /// it traced serve-cold-swap made ~90 recoveries per query, not ~0.01.
  static constexpr uint64_t kTimeoutFactor = 2;
  static constexpr uint64_t kMinPreemptionSteps = 165'000;

  /// Builds graph signatures eagerly; `g` must outlive the engine.
  explicit SmartPsiEngine(const graph::Graph& g,
                          SmartPsiConfig config = SmartPsiConfig());

  /// Unbound engine: no graph, no signatures. Evaluate() asserts until the
  /// first Rebind(). This is the service-worker form — workers are created
  /// once and rebound to whichever pinned snapshot each request resolved.
  explicit SmartPsiEngine(SmartPsiConfig config);

  /// Evaluates one pivoted query. `deadline` bounds the whole call; on
  /// expiry the result is marked incomplete. `stop` cancels cooperatively
  /// (service shutdown, caller abandonment) — the result is then also
  /// marked incomplete.
  PsiQueryResult Evaluate(const graph::QueryGraph& q,
                          util::Deadline deadline = util::Deadline(),
                          util::StopToken stop = util::StopToken());

  /// Points the engine at a different (graph, shared signatures) pair — the
  /// per-request snapshot rebind. No-op when already bound to the same
  /// pair (the steady-state fast path: one pointer comparison). Otherwise
  /// overrides the config's signature metadata from the matrix, so query
  /// signatures are built exactly like the graph's. Both `g` and `sigs` must
  /// outlive the binding — the service guarantees this by holding a
  /// snapshot pin for the whole request. Only call between Evaluate() calls.
  void Rebind(const graph::Graph& g, const signature::SignatureMatrix* sigs);

  /// True once the engine has a graph + signatures (construction-time or
  /// via Rebind). Evaluate() asserts this.
  bool bound() const { return graph_ != nullptr; }

  /// Sets the snapshot keying applied to every prediction-cache access:
  /// `salt` is XORed into the key (version-salted keys keep generations
  /// apart) and `epoch` stamps inserts / gates lookups (the belt-and-
  /// braces tripwire behind Counters::epoch_drops). Standalone engines
  /// keep the default (0, 0). Only call between Evaluate() calls.
  void set_cache_keying(uint64_t salt, uint64_t epoch) {
    cache_salt_ = salt;
    cache_epoch_ = epoch;
  }

  const signature::SignatureMatrix& graph_signatures() const {
    return *sigs_view_;
  }
  const SmartPsiConfig& config() const { return config_; }
  const graph::Graph& graph() const { return *graph_; }

  /// Seconds spent building the graph signatures at construction.
  double signature_build_seconds() const { return signature_build_seconds_; }

  /// Routes prediction-cache traffic to a caller-owned cache shared across
  /// engines (the query service's amortizable state) instead of the
  /// engine-private one. Pass nullptr to revert to the private cache. The
  /// shared cache must outlive the engine; set config.query_keyed_cache so
  /// entries from different query shapes do not pollute each other.
  void UseSharedCache(PredictionCache* cache) {
    active_cache_ = cache != nullptr ? cache : &cache_;
  }

 private:
  const signature::SignatureMatrix& sigs() const { return *sigs_view_; }

  /// Null only for an unbound engine (see bound()); never null once a
  /// constructor with a graph or Rebind() has run.
  const graph::Graph* graph_ = nullptr;
  SmartPsiConfig config_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when num_threads <= 1
  signature::SignatureMatrix graph_sigs_;  // empty when signatures are shared
  const signature::SignatureMatrix* sigs_view_ = &graph_sigs_;
  double signature_build_seconds_ = 0.0;
  PredictionCache cache_;
  PredictionCache* active_cache_ = &cache_;
  /// Snapshot keying (set_cache_keying): XOR salt on every cache key plus
  /// the epoch stamped into inserts and expected by lookups.
  uint64_t cache_salt_ = 0;
  uint64_t cache_epoch_ = 0;
  /// Search arenas reused across queries: every evaluator built inside
  /// Evaluate() leases one, so a long-lived engine (e.g. a service
  /// worker's) reaches an allocation-free steady state per candidate.
  match::SearchScratchPool scratch_pool_;
  util::Rng rng_;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_SMART_PSI_H_
