#include "service/service.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/batch_context.h"
#include "core/pure_drivers.h"
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
  // The request and the pin ride in shared state: std::function closures
  // must be copyable, the pin is move-only, and the request is not copied.
  auto shared_request = std::make_shared<BatchRequest>(std::move(request));

  // Count the admission BEFORE the task becomes runnable, one per member
  // query (each settles through RecordOutcome): once TrySubmit enqueues it,
  // a worker may record outcomes immediately, and a concurrent Stats() must
  // never observe Settled() > admitted. A shed submission revokes the
  // provisional count (admitted may transiently read high, never low).
  metrics_.RecordAdmitted(num_queries);
  // Chaos hook: pretend the queue was at its bound — exercises the shed
  // path without real overload.
  const bool injected_shed =
      PSI_INJECT_FAULT(util::faults::kServiceAdmissionShed);
  const bool admitted =
      !injected_shed &&
      pool_->TrySubmit(
          [this, shared_request, pin, done, admission_timer]() mutable {
            // The RunBatch statement is its own full expression, so the pin
            // parameter (and with it the pin gauge) drops before `done`
            // fulfills a promise: a caller observing its future never sees
            // its own request still pinned.
            BatchResponse response = RunBatch(
                std::move(*shared_request), std::move(*pin), admission_timer);
            done(std::move(response));
          },
          options_.max_queue_depth);
  if (!admitted) {
    metrics_.UndoAdmitted(num_queries);
    metrics_.RecordRejected(num_queries);
    return false;
  }
  // Chaos hook: the submitter descheduled right after its enqueue, so the
  // worker can settle the batch before Admit returns. The count above
  // already covers it: no snapshot shows Settled() > admitted.
  PSI_FAULT_STALL(util::faults::kServiceAdmissionEnqueued);
  return true;
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
                                    response.context_hits);
        promise->set_value(std::move(response));
      })) {
    metrics_.RecordBatchRejected();
    return std::nullopt;
  }
  metrics_.RecordBatchSubmitted();
  return future;
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

  // One loop in member order. A well-formed pure member on a pinned
  // snapshot takes its prepared context from the batch; every other member
  // (kSmart, malformed or unpinned) runs exactly as its own Submit would.
  // Each member's search spends the service's search_threads, so a member
  // is evaluated as it would be in a batch of one.
  for (size_t i = 0; i < num_queries; ++i) {
    QueryRequest& q = request.queries[i];
    // The batch pinned one snapshot for everyone; per-member graph names
    // are documented as ignored. Member deadlines default to the batch's.
    q.graph.clear();
    if (q.deadline_seconds <= 0.0) q.deadline_seconds = request.deadline_seconds;
    const core::QueryContext* prepared = nullptr;
    const bool well_formed = q.query.num_nodes() > 0 && q.query.has_pivot();
    if (pin && well_formed && q.method != Method::kSmart) {
      if (!context.has_value()) {
        context.emplace(pin->graph(), pin->signatures());
      }
      const core::BatchEvalContext::Prepared member = context->Prepare(q.query);
      prepared = member.context;
      response.context_hits += member.reused ? 1 : 0;
    }
    response.responses[i] = RunOne(std::move(q), pin, admission_timer,
                                   prepared, &scratch);
  }
  response.latency_seconds = admission_timer.Seconds();
  return response;
}

QueryResponse PsiService::RunOne(QueryRequest request, const SnapshotPin& pin,
                                 util::WallTimer admission_timer,
                                 const core::QueryContext* prepared,
                                 match::SearchScratchPool* scratch) {
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

    bool complete = true;
    if (request.method == Method::kSmart) {
      smart_evaluated = true;
      core::SmartPsiEngine* engine = CheckoutEngine();
      // Bind the checked-out engine to this request's pinned snapshot
      // (pointer-compare no-op when the worker last served the same one)
      // and key its cache traffic by the snapshot generation so entries
      // can never cross a swap.
      engine->Rebind(pin->graph(), &pin->signatures());
      engine->set_cache_keying(pin->cache_salt(), pin->version());
      core::PsiQueryResult result =
          engine->Evaluate(request.query, deadline, stop);
      ReturnEngine(engine);
      response.valid_nodes = std::move(result.valid_nodes);
      response.num_candidates = result.num_candidates;
      response.cache_hits = result.cache_hits;
      response.cache_mismatches = result.cache_mismatches;
      response.work_steals = result.search.work_steals;
      response.num_training_nodes = result.num_training_nodes;
      response.train_seconds = result.train_seconds;
      method_recoveries = result.method_recoveries;
      plan_fallbacks = result.plan_fallbacks;
      complete = result.complete;
    } else {
      core::PureDriverOptions pure;
      pure.strategy = request.method == Method::kOptimistic
                          ? core::PureStrategy::kOptimistic
                          : core::PureStrategy::kPessimistic;
      pure.deadline = deadline;
      pure.stop = stop;
      pure.search_threads = options_.search_threads;
      pure.max_valid_nodes = request.max_valid_nodes;
      // The batch's prepared context and scratch pool: bit-identical to
      // the standalone preparation (DESIGN.md §17).
      pure.prepared = prepared;
      pure.scratch_pool = scratch;
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
  }

  response.exec_seconds = exec_timer.Seconds();
  response.latency_seconds = admission_timer.Seconds();
  metrics_.RecordOutcome(response, method_recoveries, plan_fallbacks,
                         smart_evaluated);
  return response;
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
  stats.faults_injected = util::FaultInjector::Global().TotalFires();
  return stats;
}

}  // namespace psi::service
