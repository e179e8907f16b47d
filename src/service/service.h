#ifndef SMARTPSI_SERVICE_SERVICE_H_
#define SMARTPSI_SERVICE_SERVICE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/batch_context.h"
#include "core/config.h"
#include "core/prediction_cache.h"
#include "core/smart_psi.h"
#include "match/search_scratch.h"
#include "graph/graph.h"
#include "service/catalog.h"
#include "service/metrics.h"
#include "service/request.h"
#include "signature/sparse_requirement.h"
#include "util/mutex.h"
#include "util/stop_token.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace psi::service {

/// Graceful-degradation policies (DESIGN.md §11). Disabled by default:
/// the service then sheds, times out and caches exactly as in earlier
/// revisions. Every policy trades throughput or freshness for stability —
/// never correctness, which no mode can affect (answers stay exact).
struct DegradationOptions {
  /// Master switch for all three policies below.
  bool enabled = false;

  // --- Bounded retry-with-backoff for shed submissions -------------------
  /// Extra admission attempts after an initial shed; 0 restores
  /// fail-fast shedding even when `enabled`.
  size_t max_shed_retries = 3;
  /// First retry waits this long; each later retry doubles it. Submit()
  /// blocks the caller for at most the sum of these backoffs.
  double retry_backoff_ms = 1.0;

  // --- Pessimist-only fallback on misprediction-timeout storms -----------
  /// Sliding window (in settled kSmart requests) over which the
  /// misprediction-timeout rate is measured.
  size_t timeout_window = 32;
  /// Fraction of windowed requests with a misprediction timeout (a state-2/3
  /// recovery or a deadline expiry) at or above which the service enters
  /// pessimist-only mode: kSmart requests are served by the pure pessimistic
  /// driver (no models, no MaxTime) until the cooldown elapses.
  double timeout_rate_threshold = 0.5;
  /// Requests served degraded before normal (smart) service is retried.
  size_t degraded_cooldown = 64;

  // --- Cache bypass on poisoning ------------------------------------------
  /// Sliding window (in cache hits) for the verify-on-sample detector.
  size_t poison_window = 32;
  /// Mismatch fraction (confirmed-wrong hits / hits) at or above which the
  /// shared cache is cleared and bypassed until the cooldown elapses.
  double mismatch_rate_threshold = 0.25;
  /// Smart evaluations served cache-less before the cache is re-enabled.
  size_t cache_bypass_cooldown = 64;
};

struct ServiceOptions {
  /// Concurrent query executions. Each worker owns one single-threaded
  /// SmartPsiEngine; cross-query parallelism replaces the engine's internal
  /// within-query parallelism.
  size_t num_workers = 4;

  /// Admission bound: requests arriving while this many are already queued
  /// (excluding the ones executing) are shed with kRejected instead of
  /// buffered — bounded memory and bounded queue delay under overload.
  size_t max_queue_depth = 256;

  /// Applied when a request carries no deadline of its own; <= 0 means
  /// unbounded execution.
  double default_deadline_seconds = 0.0;

  /// Compute every data row's memoized signature hash
  /// (SignatureMatrix::RowHash, the prediction-cache key) on the service
  /// pool at startup instead of lazily on first use, trading startup time
  /// for steady first-query latency.
  bool prewarm_row_hashes = false;

  /// Graceful-degradation policies; disabled by default.
  DegradationOptions degradation;

  /// Catalog name requests with an empty `QueryRequest::graph` resolve to.
  /// The graph-reference constructor publishes its graph under this name.
  std::string default_graph = "default";

  /// Per-worker engine tuning. num_threads is forced to `search_threads`
  /// and query_keyed_cache to true regardless of what is set here (the
  /// service owns parallelism and shares one cache across query shapes).
  core::SmartPsiConfig engine;

  /// Intra-query search parallelism (DESIGN.md §14): each evaluation
  /// splits its candidate frontier across this many work-stealing workers.
  /// 1 keeps the classic sequential search. Multiplies with num_workers,
  /// so total concurrency is num_workers × search_threads.
  size_t search_threads = 1;
};

/// Point-in-time service health: request metrics plus the shared-state
/// gauges that only the service can see.
struct ServiceStats {
  MetricsSnapshot metrics;
  core::PredictionCache::Counters cache;
  /// Copy of metrics.cache_entries, the gauge tools and tests read.
  /// perfbench/perfbench.cc reads it here; drop it once the benchmark
  /// reads metrics.cache_entries.
  size_t cache_entries = 0;
  size_t queue_depth = 0;
  size_t num_workers = 0;
  double signature_build_seconds = 0.0;
  double uptime_seconds = 0.0;
  /// Per-snapshot gauges: every current catalog snapshot plus retired
  /// generations still pinned by in-flight requests.
  std::vector<CatalogEntry> snapshots;
  /// Degraded-mode gauges: current state, not monotonic counters (those
  /// live in metrics.degraded_entries/exits etc.).
  bool degraded_mode = false;
  bool cache_bypass = false;
  /// Faults fired by the process-wide injector since process start
  /// (0 in PSI_ENABLE_FAULT_INJECTION=OFF builds and un-armed runs).
  uint64_t faults_injected = 0;
};

/// Multi-threaded in-process PSI query service (the serving layer over the
/// paper's single-query pipeline).
///
/// Data-graph ownership flows through a GraphCatalog of versioned,
/// shared_ptr-pinned snapshots (see catalog.h): every request resolves its
/// graph name at admission, pins the current snapshot, and runs against it
/// end to end — a concurrent hot swap never changes what an in-flight
/// request sees, and a replaced snapshot's memory is reclaimed when its
/// last pin drops. The signature-keyed prediction cache (§4.2.3) is shared
/// across requests with version-salted keys, so entries can never cross a
/// swap; per-request state (models, plan pools, search scratch) stays
/// inside per-worker engines, which rebind to the pinned snapshot per
/// request. Requests pass through a bounded admission queue onto a fixed
/// worker pool; a per-request deadline bounds execution and Shutdown()
/// cancels in-flight work through util::StopToken, so one pathological
/// query can delay its own caller but never stall the service.
///
/// Thread-safe: Submit/Execute/Stats may be called concurrently from any
/// number of threads. Results are exact (status kOk) regardless of
/// concurrency — model mispredictions cost time, never correctness — so a
/// response must only be compared against a serial engine's answer, not
/// trusted less.
class PsiService {
 public:
  /// Single-graph convenience: clones `g` into a service-owned catalog
  /// under options.default_graph, building the signature matrix on the
  /// service pool (parallel). The caller's graph is not referenced after
  /// construction returns.
  PsiService(const graph::Graph& g, ServiceOptions options = ServiceOptions());

  /// Serves a caller-owned catalog (which may be shared with an admin
  /// surface doing live load/swap/retire). The catalog must outlive the
  /// service; it need not contain options.default_graph yet — requests
  /// resolve names at admission, so graphs published later just start
  /// serving.
  explicit PsiService(GraphCatalog* catalog,
                      ServiceOptions options = ServiceOptions());

  PsiService(const PsiService&) = delete;
  PsiService& operator=(const PsiService&) = delete;

  /// Cancels in-flight work and drains the queue.
  ~PsiService();

  /// Admits a request, returning a future for its response — or
  /// std::nullopt when the request is shed (queue at bound, or service
  /// shutting down). A request with id 0 gets a service-assigned id; the
  /// assigned id is only visible in the response, so callers that need the
  /// id up front should set their own. Internally a query is a batch of
  /// one: it shares SubmitBatch's admission and runner, but not its batch_*
  /// counters, which count SubmitBatch traffic only.
  std::optional<std::future<QueryResponse>> Submit(QueryRequest request);

  /// Synchronous convenience wrapper: admits and blocks for the response.
  /// A shed request returns immediately with status kRejected.
  QueryResponse Execute(QueryRequest request);

  /// Admits a group of queries as one unit (DESIGN.md §17): one admission
  /// decision, one snapshot pinned for the whole batch, one worker slot.
  /// Member queries share prepared candidate sets and query-signature rows
  /// where their structure allows, and settle individually — a malformed
  /// or timed-out member never poisons its siblings. Per-query answers are
  /// bit-identical to submitting the same queries through Submit() one by
  /// one against the same snapshot. Returns std::nullopt when the whole
  /// batch is shed (queue at bound, or service shutting down).
  std::optional<std::future<BatchResponse>> SubmitBatch(BatchRequest request);

  /// Synchronous convenience wrapper for SubmitBatch. A shed batch returns
  /// immediately with every member marked kRejected.
  BatchResponse ExecuteBatch(BatchRequest request);

  ServiceStats Stats() const;

  /// Stops admission, cancels in-flight queries (they return kCancelled or
  /// a partial kTimeout answer), and waits for the queue to drain.
  /// Idempotent; called by the destructor.
  void Shutdown();

  /// The catalog this service resolves graph names against — the admin
  /// surface for live load/swap/retire. Publishing or retiring through it
  /// is safe while the service is serving.
  GraphCatalog& catalog() { return *catalog_; }
  const GraphCatalog& catalog() const { return *catalog_; }

  const ServiceOptions& options() const { return options_; }

 private:
  /// Per-member-query batch state prepared on the batch thread before
  /// evaluation (possibly) fans out. `prepared`/`pivot_requirement` point
  /// into the batch's BatchEvalContext and are null for kSmart members,
  /// malformed members, and members the service.batch fault degraded to
  /// the standalone path. `scratch` is set for pure members only.
  struct BatchSlot {
    const core::QueryContext* prepared = nullptr;
    const signature::SparseRequirement* pivot_requirement = nullptr;
    match::SearchScratchPool* scratch = nullptr;
    /// Intra-query search threads for this member; 0 keeps the service
    /// default (set to 1 when the batch fans out across members instead).
    size_t search_threads_override = 0;
    bool context_hit = false;
    /// The service.batch fault fired for this member: it abandons the
    /// shared-context fast path and evaluates standalone (same answer).
    bool fault_degraded = false;
  };

  /// Receives an admitted batch's settled response on its worker, after
  /// the batch's snapshot pin has dropped.
  using BatchDone = std::function<void(BatchResponse)>;

  void StartWorkers();
  /// The one admission routine behind Submit and SubmitBatch: pins the
  /// snapshot, counts one admission per member before enqueueing, and
  /// applies shedding and the bounded retry-with-backoff policy. Returns
  /// false when the batch is shed; `done` then never runs.
  bool Admit(BatchRequest request, BatchDone done);
  /// The only worker entry: evaluates every member against one pin.
  BatchResponse RunBatch(BatchRequest request, SnapshotPin pin,
                         util::WallTimer admission_timer);
  /// The only per-query evaluator; records the member's outcome.
  QueryResponse RunOne(QueryRequest request, const SnapshotPin& pin,
                       util::WallTimer admission_timer, const BatchSlot& slot);

  core::SmartPsiEngine* CheckoutEngine() PSI_EXCLUDES(engines_mutex_);
  void ReturnEngine(core::SmartPsiEngine* engine) PSI_EXCLUDES(engines_mutex_);

  /// Degradation state machine (DESIGN.md §11). Folds one settled kSmart
  /// request into the sliding windows and performs any mode transition.
  void UpdateDegradation(const QueryResponse& response,
                         uint64_t method_recoveries, uint64_t plan_fallbacks)
      PSI_EXCLUDES(degrade_mutex_);
  bool DegradedModeActive() const PSI_EXCLUDES(degrade_mutex_);
  bool CacheBypassActive() const PSI_EXCLUDES(degrade_mutex_);

  // psi-check: allow(lock-guard) -- immutable after construction
  ServiceOptions options_;
  /// Set for the convenience constructor; the catalog-pointer constructor
  /// leaves it null and serves the caller's catalog.
  // psi-check: allow(lock-guard) -- set once in the constructor, never reseated
  std::unique_ptr<GraphCatalog> owned_catalog_;
  // psi-check: allow(lock-guard) -- set once in the constructor; the catalog is internally synchronized
  GraphCatalog* catalog_ = nullptr;  // never null after construction
  // psi-check: allow(lock-guard) -- written once during construction, read-only afterwards
  double signature_build_seconds_ = 0.0;
  // psi-check: allow(lock-guard) -- PredictionCache is internally synchronized (per-shard mutexes)
  core::PredictionCache shared_cache_;
  // psi-check: allow(lock-guard) -- MetricsRegistry is internally synchronized (atomics + lock-free reservoir)
  MetricsRegistry metrics_;
  // psi-check: allow(lock-guard) -- StopSource publishes via its own release/acquire contract (util/stop_token.h)
  util::StopSource shutdown_;
  /// Admission gate flipped by Shutdown(). Relaxed accesses suffice: it is
  /// a monotonic bool carrying no payload, and the authoritative cancel
  /// signal workers act on is `shutdown_` (release/acquire, see
  /// util/stop_token.h).
  std::atomic<bool> accepting_{true};
  std::atomic<uint64_t> next_auto_id_{1};
  // psi-check: allow(lock-guard) -- started at construction, read-only afterwards
  util::WallTimer uptime_;

  /// Sliding windows and mode flags for the degradation policies. Leaf
  /// lock: never held while acquiring engines_mutex_ or sleeping.
  struct DegradeState {
    // Pessimist-only fallback.
    bool pessimist_only = false;
    size_t cooldown_remaining = 0;
    size_t window_requests = 0;
    size_t window_timeouts = 0;
    // Cache bypass.
    bool cache_bypass = false;
    size_t bypass_cooldown_remaining = 0;
    uint64_t window_cache_hits = 0;
    uint64_t window_cache_mismatches = 0;
  };
  mutable util::Mutex degrade_mutex_;
  DegradeState degrade_ PSI_GUARDED_BY(degrade_mutex_);

  // `engines_` itself is written only at construction (StartWorkers) and is
  // immutable afterwards; the checkout free list is the shared mutable part.
  // psi-check: allow(lock-guard) -- vector filled at construction; element engines are leased exclusively via free_engines_
  std::vector<std::unique_ptr<core::SmartPsiEngine>> engines_;
  util::Mutex engines_mutex_;
  std::vector<core::SmartPsiEngine*> free_engines_
      PSI_GUARDED_BY(engines_mutex_);

  // Declared last: destroyed first, so draining workers still see live
  // engines, cache and metrics.
  // psi-check: allow(lock-guard) -- set once in the constructor; ThreadPool is internally synchronized
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace psi::service

#endif  // SMARTPSI_SERVICE_SERVICE_H_
