#include "service/service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <utility>

#include "core/pure_drivers.h"
#include "match/parallel_search.h"
#include "util/fault_injection.h"

namespace psi::service {

PsiService::PsiService(const graph::Graph& g, ServiceOptions options)
    : options_(options) {
  options_.num_workers = std::max<size_t>(1, options_.num_workers);
  pool_ = std::make_unique<util::ThreadPool>(options_.num_workers);
  owned_catalog_ = std::make_unique<GraphCatalog>();
  catalog_ = owned_catalog_.get();
  GraphCatalog::BuildOptions build;
  build.signature_method = options_.engine.signature_method;
  build.signature_depth = options_.engine.signature_depth;
  build.signature_decay = options_.engine.signature_decay;
  build.prewarm_row_hashes = options_.prewarm_row_hashes;
  // The service pool is idle until StartWorkers below, so the startup
  // build may parallelize on it safely (the no-serving-pool rule in
  // BuildOptions only bites once queries are in flight).
  build.pool = pool_.get();
  // If an armed catalog.publish fault fires here the service starts with
  // an empty catalog and every request settles kNotFound — degraded, not
  // broken, matching the chaos layer's graceful-failure contract.
  auto published =
      catalog_->BuildAndPublish(options_.default_graph, g.Clone(), build);
  if (published.ok()) {
    signature_build_seconds_ =
        published.value()->timings().signature_build_seconds;
  }
  StartWorkers();
}

PsiService::PsiService(GraphCatalog* catalog, ServiceOptions options)
    : options_(options), catalog_(catalog) {
  assert(catalog != nullptr);
  options_.num_workers = std::max<size_t>(1, options_.num_workers);
  pool_ = std::make_unique<util::ThreadPool>(options_.num_workers);
  if (const auto snapshot = catalog_->Resolve(options_.default_graph)) {
    signature_build_seconds_ = snapshot->timings().signature_build_seconds;
  }
  StartWorkers();
}

void PsiService::StartWorkers() {
  // One engine per worker: engines are not safe for concurrent Evaluate()
  // calls, so the pool's width caps how many are ever checked out at once.
  core::SmartPsiConfig config = options_.engine;
  // Cross-query parallelism comes from num_workers; within-query
  // parallelism is the service-level search_threads knob, not whatever the
  // caller left in the engine config.
  config.num_threads = std::max<size_t>(1, options_.search_threads);
  config.query_keyed_cache = true;
  options_.engine = config;
  engines_.reserve(options_.num_workers);
  // Construction is single-threaded, but the free list is guarded state, so
  // take its (uncontended) lock to keep the annotations honest.
  util::MutexLock lock(engines_mutex_);
  free_engines_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    // Same seed everywhere: with query_keyed_cache every engine derives an
    // identical plan pool for a given query, so cached plan indices written
    // by one worker mean the same thing to all others. Engines start
    // unbound; each request rebinds its checked-out engine to the snapshot
    // it pinned at admission.
    engines_.push_back(std::make_unique<core::SmartPsiEngine>(config));
    engines_.back()->UseSharedCache(&shared_cache_);
    free_engines_.push_back(engines_.back().get());
  }
}

PsiService::~PsiService() { Shutdown(); }

void PsiService::Shutdown() {
  accepting_.store(false, std::memory_order_relaxed);
  shutdown_.RequestStop();
  pool_->Wait();
}

core::SmartPsiEngine* PsiService::CheckoutEngine() {
  util::MutexLock lock(engines_mutex_);
  assert(!free_engines_.empty() && "more checkouts than pool workers");
  core::SmartPsiEngine* engine = free_engines_.back();
  free_engines_.pop_back();
  return engine;
}

void PsiService::ReturnEngine(core::SmartPsiEngine* engine) {
  util::MutexLock lock(engines_mutex_);
  free_engines_.push_back(engine);
}

bool PsiService::Admit(BatchRequest request, BatchDone done) {
  const size_t num_queries = request.queries.size();
  if (!accepting_.load(std::memory_order_relaxed)) {
    metrics_.RecordRejected(num_queries);
    return false;
  }
  // The admission timer starts now so the recorded latency includes queue
  // wait — the delay a caller actually experiences.
  util::WallTimer admission_timer;
  // Snapshot resolution happens at admission, not execution: the batch
  // pins whatever is current *now* and keeps that one snapshot for its
  // whole lifetime, so a swap that lands while it queues cannot change
  // what any member runs against — the soundness precondition for sharing
  // prepared state between members. An empty pin (unknown name) is still
  // admitted and settles kNotFound, keeping Settled() == admitted exact.
  auto pin = std::make_shared<SnapshotPin>(catalog_->Pin(
      request.graph.empty() ? options_.default_graph : request.graph));
  // The request lives in shared state (not the task closure) so a shed
  // TrySubmit — which destroys the closure it was handed — leaves it
  // intact for the next retry attempt. The pin rides the same way (it is
  // move-only, and std::function closures must be copyable).
  auto shared_request = std::make_shared<BatchRequest>(std::move(request));

  const size_t max_retries =
      options_.degradation.enabled ? options_.degradation.max_shed_retries : 0;
  double backoff_ms = options_.degradation.retry_backoff_ms;
  for (size_t attempt = 0;; ++attempt) {
    // Count the admission BEFORE the task becomes runnable, one per member
    // query (each settles through RecordOutcome): once TrySubmit enqueues
    // it, a worker may record outcomes immediately, and a concurrent
    // Stats() must never observe Settled() > admitted. A shed submission
    // revokes the provisional count (admitted may transiently read high,
    // never low).
    metrics_.RecordAdmitted(num_queries);
    // Chaos hook: pretend the queue was at its bound — exercises the shed
    // path (and the retry policy above it) without real overload.
    const bool injected_shed =
        PSI_INJECT_FAULT(util::faults::kServiceAdmissionShed);
    const bool admitted =
        !injected_shed &&
        pool_->TrySubmit(
            [this, shared_request, pin, done, admission_timer]() mutable {
              // The RunBatch statement is its own full expression, so the
              // pin parameter (and with it the pin gauge) drops before
              // `done` fulfills a promise: a caller observing its future
              // never sees its own request still pinned.
              BatchResponse response =
                  RunBatch(std::move(*shared_request), std::move(*pin),
                           admission_timer);
              done(std::move(response));
            },
            options_.max_queue_depth);
    if (admitted) {
      // Chaos hook: the submitter descheduled right after its enqueue, so
      // the worker can settle the batch before Admit returns. The count
      // above already covers it: no snapshot shows Settled() > admitted.
      PSI_FAULT_STALL(util::faults::kServiceAdmissionEnqueued);
      if (attempt > 0) metrics_.RecordRetriedAdmission();
      return true;
    }
    metrics_.UndoAdmitted(num_queries);
    if (attempt >= max_retries ||
        !accepting_.load(std::memory_order_relaxed)) {
      metrics_.RecordRejected(num_queries);
      return false;
    }
    // Bounded exponential backoff before the next attempt. Blocking the
    // caller is the point: retry-with-backoff converts a shed into
    // backpressure instead of an error, for callers that opted in.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms *= 2.0;
  }
}

std::optional<std::future<QueryResponse>> PsiService::Submit(
    QueryRequest request) {
  if (request.id == 0) {
    request.id = next_auto_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // A query is a batch of one: same admission, same runner.
  BatchRequest batch;
  batch.id = request.id;
  batch.graph = std::move(request.graph);
  batch.queries.push_back(std::move(request));
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  if (!Admit(std::move(batch), [promise](BatchResponse response) {
        promise->set_value(std::move(response.responses[0]));
      })) {
    return std::nullopt;
  }
  return future;
}

QueryResponse PsiService::Execute(QueryRequest request) {
  const uint64_t id = request.id;
  std::optional<std::future<QueryResponse>> future = Submit(std::move(request));
  if (!future.has_value()) {
    QueryResponse response;
    response.id = id;
    response.status = RequestStatus::kRejected;
    return response;
  }
  return future->get();
}

std::optional<std::future<BatchResponse>> PsiService::SubmitBatch(
    BatchRequest request) {
  if (request.id == 0) {
    request.id = next_auto_id_.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < request.queries.size(); ++i) {
    if (request.queries[i].id == 0) {
      request.queries[i].id = request.id * 1000 + i;
    }
  }
  auto promise = std::make_shared<std::promise<BatchResponse>>();
  std::future<BatchResponse> future = promise->get_future();
  // The batch_* counters are SubmitBatch's own: a Submit is a batch of one
  // internally, but not batch traffic.
  if (!Admit(std::move(request), [this, promise](BatchResponse response) {
        metrics_.RecordBatchQueries(response.responses.size(),
                                    response.context_hits,
                                    response.degraded_queries);
        promise->set_value(std::move(response));
      })) {
    metrics_.RecordBatchRejected();
    return std::nullopt;
  }
  metrics_.RecordBatchSubmitted();
  return future;
}

BatchResponse PsiService::ExecuteBatch(BatchRequest request) {
  const uint64_t id = request.id;
  std::vector<uint64_t> member_ids;
  member_ids.reserve(request.queries.size());
  for (const QueryRequest& q : request.queries) member_ids.push_back(q.id);
  std::optional<std::future<BatchResponse>> future =
      SubmitBatch(std::move(request));
  if (!future.has_value()) {
    BatchResponse response;
    response.id = id;
    response.responses.resize(member_ids.size());
    for (size_t i = 0; i < member_ids.size(); ++i) {
      response.responses[i].id = member_ids[i];
      response.responses[i].status = RequestStatus::kRejected;
    }
    return response;
  }
  return future->get();
}

BatchResponse PsiService::RunBatch(BatchRequest request, SnapshotPin pin,
                                   util::WallTimer admission_timer) {
  // Chaos hook: a worker descheduled between dequeue and execution (the
  // slow-worker scenario — queue wait inflates, deadlines burn down).
  PSI_FAULT_STALL(util::faults::kServiceWorkerStall);

  const size_t num_queries = request.queries.size();
  BatchResponse response;
  response.id = request.id;
  response.snapshot_version = pin ? pin->version() : 0;
  response.responses.resize(num_queries);

  // Shared per-batch state: one evaluation context over the pinned
  // snapshot, built on the first pure member (a kSmart query never needs
  // it), and one scratch pool every pure member leases its arenas from.
  std::optional<core::BatchEvalContext> context;
  match::SearchScratchPool scratch;

  // Preparation runs on the batch thread (BatchEvalContext is not
  // thread-safe); evaluation may fan out afterwards. Only pure-method
  // members with a well-formed pivoted query take the shared fast path —
  // kSmart members go through their checked-out engine as usual.
  std::vector<BatchSlot> slots(num_queries);
  std::vector<size_t> pure_members;
  for (size_t i = 0; i < num_queries; ++i) {
    QueryRequest& q = request.queries[i];
    // The batch pinned one snapshot for everyone; per-member graph names
    // are documented as ignored. Member deadlines default to the batch's.
    q.graph.clear();
    if (q.deadline_seconds <= 0.0) q.deadline_seconds = request.deadline_seconds;
    const bool well_formed = q.query.num_nodes() > 0 && q.query.has_pivot();
    if (!pin || !well_formed || q.method == Method::kSmart) continue;
    pure_members.push_back(i);
    slots[i].scratch = &scratch;
    // Chaos hook: this member abandons the shared-context fast path and is
    // evaluated standalone — graceful per-query degradation, identical
    // answer (the differential chaos test pins this).
    if (PSI_INJECT_FAULT(util::faults::kServiceBatch)) {
      slots[i].fault_degraded = true;
      continue;
    }
    if (!context.has_value()) context.emplace(pin->graph(), pin->signatures());
    const core::BatchEvalContext::Prepared prepared =
        context->Prepare(q.query);
    slots[i].prepared = prepared.context;
    slots[i].pivot_requirement = prepared.pivot_requirement;
    slots[i].context_hit = prepared.reused;
  }

  // Pure members fan out across the batch frontier on the work-stealing
  // executor when the service has intra-query threads to spend; each lane
  // then runs its member sequentially (search_threads_override = 1).
  // Answers are independent of the split — EvaluatePure is bit-identical
  // at every thread count — so this only reshapes latency.
  const size_t lanes = std::max<size_t>(
      1, std::min(options_.search_threads, pure_members.size()));
  if (lanes > 1) {
    for (const size_t i : pure_members) slots[i].search_threads_override = 1;
    match::RunWorkStealing(
        pure_members.size(), lanes, nullptr, [&](size_t item, size_t) {
          const size_t i = pure_members[item];
          response.responses[i] = RunOne(std::move(request.queries[i]), pin,
                                         admission_timer, slots[i]);
        });
  } else {
    for (const size_t i : pure_members) {
      response.responses[i] = RunOne(std::move(request.queries[i]), pin,
                                     admission_timer, slots[i]);
    }
  }
  // The rest — kSmart, malformed and unpinned members — hold no scratch.
  for (size_t i = 0; i < num_queries; ++i) {
    if (slots[i].scratch != nullptr) continue;
    response.responses[i] = RunOne(std::move(request.queries[i]), pin,
                                   admission_timer, slots[i]);
  }

  for (const BatchSlot& slot : slots) {
    response.context_hits += slot.context_hit ? 1 : 0;
    response.degraded_queries += slot.fault_degraded ? 1 : 0;
  }
  response.latency_seconds = admission_timer.Seconds();
  return response;
}

QueryResponse PsiService::RunOne(QueryRequest request, const SnapshotPin& pin,
                                 util::WallTimer admission_timer,
                                 const BatchSlot& slot) {
  QueryResponse response;
  response.id = request.id;
  response.snapshot_version = pin ? pin->version() : 0;
  uint64_t method_recoveries = 0;
  uint64_t plan_fallbacks = 0;
  bool smart_evaluated = false;
  util::WallTimer exec_timer;

  // The Realist has no stop point, so a limit on a kSmart request is a
  // promise the service cannot keep.
  if (request.query.num_nodes() == 0 || !request.query.has_pivot() ||
      (request.method == Method::kSmart && request.max_valid_nodes > 0)) {
    response.status = RequestStatus::kInvalid;
  } else if (!pin) {
    response.status = RequestStatus::kNotFound;
  } else if (shutdown_.StopRequested()) {
    response.status = RequestStatus::kCancelled;
  } else {
    const double limit = request.deadline_seconds > 0.0
                             ? request.deadline_seconds
                             : options_.default_deadline_seconds;
    // The budget runs from admission (request.h), so queue wait, a stalled
    // worker and earlier members of a sequential batch all spend it.
    const util::Deadline deadline =
        limit > 0.0 ? util::Deadline::After(limit - admission_timer.Seconds())
                    : util::Deadline();
    const util::StopToken stop(&shutdown_);

    // Degradation policy: under a misprediction-timeout storm, kSmart
    // requests are served by the pure pessimistic driver until cooldown —
    // exact answers, no models to mispredict (DESIGN.md §11).
    Method effective = request.method;
    if (effective == Method::kSmart && DegradedModeActive()) {
      effective = Method::kPessimistic;
      response.served_degraded = true;
    }

    bool complete = true;
    if (effective == Method::kSmart) {
      smart_evaluated = true;
      core::SmartPsiEngine* engine = CheckoutEngine();
      // Bind the checked-out engine to this request's pinned snapshot
      // (pointer-compare no-op when the worker last served the same one)
      // and key its cache traffic by the snapshot generation so entries
      // can never cross a swap.
      engine->Rebind(pin->graph(), &pin->signatures());
      engine->set_cache_keying(pin->cache_salt(), pin->version());
      // Cache-bypass degradation: serve this evaluation model-only. The
      // engine is held exclusively between checkout and return, so the
      // toggle cannot race another Evaluate.
      const bool bypass =
          options_.engine.enable_cache && CacheBypassActive();
      if (bypass) engine->set_cache_enabled(false);
      core::PsiQueryResult result =
          engine->Evaluate(request.query, deadline, stop);
      if (bypass) engine->set_cache_enabled(options_.engine.enable_cache);
      ReturnEngine(engine);
      response.valid_nodes = std::move(result.valid_nodes);
      response.num_candidates = result.num_candidates;
      response.cache_hits = result.cache_hits;
      response.cache_mismatches = result.cache_mismatches;
      response.work_steals = result.search.work_steals;
      method_recoveries = result.method_recoveries;
      plan_fallbacks = result.plan_fallbacks;
      complete = result.complete;
    } else {
      core::PureDriverOptions pure;
      pure.strategy = effective == Method::kOptimistic
                          ? core::PureStrategy::kOptimistic
                          : core::PureStrategy::kPessimistic;
      pure.deadline = deadline;
      pure.stop = stop;
      pure.search_threads = slot.search_threads_override > 0
                                ? slot.search_threads_override
                                : options_.search_threads;
      pure.max_valid_nodes = request.max_valid_nodes;
      if (!slot.fault_degraded) {
        // Shared fast path: evaluate against the batch's prepared context
        // and lease scratch from its pool. Bit-identical to the standalone
        // preparation (DESIGN.md §17). The pointers are null for members
        // the batch did not prepare (a kSmart query served pessimistically
        // in degraded mode), and a member whose service.batch fault fired
        // skips this — both re-derive everything: same answer, standalone
        // cost.
        pure.prepared = slot.prepared;
        pure.prepared_pivot_requirement = slot.pivot_requirement;
        pure.scratch_pool = slot.scratch;
      }
      core::PureDriverResult result = core::EvaluatePure(
          pin->graph(), pin->signatures(), request.query, pure);
      response.valid_nodes = std::move(result.valid_nodes);
      response.work_steals = result.stats.work_steals;
      complete = result.complete;
    }
    if (complete) {
      response.status = RequestStatus::kOk;
    } else if (shutdown_.StopRequested()) {
      response.status = RequestStatus::kCancelled;
    } else {
      response.status = RequestStatus::kTimeout;
    }
    // Only kSmart traffic feeds the state machine: pure-method requests
    // say nothing about model health, and cancelled requests say nothing
    // about anything.
    if (request.method == Method::kSmart &&
        response.status != RequestStatus::kCancelled &&
        (smart_evaluated || response.served_degraded)) {
      UpdateDegradation(response, method_recoveries, plan_fallbacks);
    }
  }

  response.exec_seconds = exec_timer.Seconds();
  response.latency_seconds = admission_timer.Seconds();
  metrics_.RecordOutcome(response, method_recoveries, plan_fallbacks);
  return response;
}


bool PsiService::DegradedModeActive() const {
  if (!options_.degradation.enabled) return false;
  util::MutexLock lock(degrade_mutex_);
  return degrade_.pessimist_only;
}

bool PsiService::CacheBypassActive() const {
  if (!options_.degradation.enabled) return false;
  util::MutexLock lock(degrade_mutex_);
  return degrade_.cache_bypass;
}

void PsiService::UpdateDegradation(const QueryResponse& response,
                                   uint64_t method_recoveries,
                                   uint64_t plan_fallbacks) {
  if (!options_.degradation.enabled) return;
  const DegradationOptions& dg = options_.degradation;
  bool entered_degraded = false;
  bool exited_degraded = false;
  bool entered_bypass = false;
  bool exited_bypass = false;
  {
    util::MutexLock lock(degrade_mutex_);

    // --- Pessimist-only fallback -----------------------------------------
    if (degrade_.pessimist_only) {
      // Every degraded-served request burns cooldown; smart service is
      // retried once it elapses (with fresh windows, so one bad request
      // cannot re-trigger immediately).
      if (response.served_degraded && degrade_.cooldown_remaining > 0 &&
          --degrade_.cooldown_remaining == 0) {
        degrade_.pessimist_only = false;
        degrade_.window_requests = 0;
        degrade_.window_timeouts = 0;
        exited_degraded = true;
      }
    } else {
      ++degrade_.window_requests;
      // A misprediction timeout: the preemptive executor's MaxTime fired
      // (state-2/3 recovery) or the request deadline expired outright.
      if (method_recoveries + plan_fallbacks > 0 ||
          response.status == RequestStatus::kTimeout) {
        ++degrade_.window_timeouts;
      }
      if (degrade_.window_requests >= std::max<size_t>(1, dg.timeout_window)) {
        const double rate = static_cast<double>(degrade_.window_timeouts) /
                            static_cast<double>(degrade_.window_requests);
        if (rate >= dg.timeout_rate_threshold) {
          degrade_.pessimist_only = true;
          degrade_.cooldown_remaining = std::max<size_t>(1,
                                                         dg.degraded_cooldown);
          entered_degraded = true;
        }
        degrade_.window_requests = 0;
        degrade_.window_timeouts = 0;
      }
    }

    // --- Cache bypass on poisoning ---------------------------------------
    if (degrade_.cache_bypass) {
      // Bypassed evaluations produce no cache hits, so the mismatch window
      // cannot refill; cooldown is the only exit.
      if (!response.served_degraded &&
          degrade_.bypass_cooldown_remaining > 0 &&
          --degrade_.bypass_cooldown_remaining == 0) {
        degrade_.cache_bypass = false;
        degrade_.window_cache_hits = 0;
        degrade_.window_cache_mismatches = 0;
        exited_bypass = true;
      }
    } else {
      degrade_.window_cache_hits += response.cache_hits;
      degrade_.window_cache_mismatches += response.cache_mismatches;
      if (degrade_.window_cache_hits >= std::max<size_t>(1,
                                                         dg.poison_window)) {
        const double rate =
            static_cast<double>(degrade_.window_cache_mismatches) /
            static_cast<double>(degrade_.window_cache_hits);
        if (rate >= dg.mismatch_rate_threshold) {
          degrade_.cache_bypass = true;
          degrade_.bypass_cooldown_remaining =
              std::max<size_t>(1, dg.cache_bypass_cooldown);
          entered_bypass = true;
        }
        degrade_.window_cache_hits = 0;
        degrade_.window_cache_mismatches = 0;
      }
    }
  }
  // Side effects outside the leaf lock.
  if (entered_degraded) metrics_.RecordDegradedTransition(true);
  if (exited_degraded) metrics_.RecordDegradedTransition(false);
  if (entered_bypass) {
    // Poisoned entries steer predictions until evicted — drop them all;
    // the cache refills from confirmed outcomes once bypass lifts.
    shared_cache_.Clear();
    metrics_.RecordCacheBypassTransition(true);
  }
  if (exited_bypass) metrics_.RecordCacheBypassTransition(false);
}

ServiceStats PsiService::Stats() const {
  ServiceStats stats;
  stats.metrics = metrics_.Snapshot();
  const GraphCatalog::Counters catalog_counters = catalog_->counters();
  stats.metrics.snapshot_publishes = catalog_counters.published;
  stats.metrics.snapshot_swaps = catalog_counters.swaps;
  stats.metrics.snapshot_retires = catalog_counters.retired;
  stats.metrics.snapshot_publish_failures = catalog_counters.publish_failures;
  stats.snapshots = catalog_->List();
  stats.cache = shared_cache_.counters();
  stats.metrics.cache_entries = shared_cache_.size();
  stats.metrics.cache_evictions = stats.cache.evictions;
  stats.cache_entries = stats.metrics.cache_entries;
  stats.queue_depth = pool_->queue_depth();
  stats.num_workers = options_.num_workers;
  stats.signature_build_seconds = signature_build_seconds_;
  stats.uptime_seconds = uptime_.Seconds();
  stats.degraded_mode = DegradedModeActive();
  stats.cache_bypass = CacheBypassActive();
  stats.faults_injected = util::FaultInjector::Global().TotalFires();
  return stats;
}

}  // namespace psi::service
