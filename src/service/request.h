#ifndef SMARTPSI_SERVICE_REQUEST_H_
#define SMARTPSI_SERVICE_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "graph/query_graph.h"
#include "graph/types.h"

namespace psi::service {

/// Which evaluation strategy a request runs under. kSmart is the Realist
/// (SmartPSI with models, cache and preemptive executor); the pure methods
/// bypass ML entirely and exist for per-request overrides and A/B traffic.
enum class Method {
  kSmart,
  kOptimistic,
  kPessimistic,
};

const char* MethodName(Method m);

/// One unit of service work: a pivoted query plus per-request policy.
struct QueryRequest {
  /// Caller-chosen correlation id; 0 lets the service assign one.
  uint64_t id = 0;

  graph::QueryGraph query;

  /// Per-request execution budget in seconds measured from admission;
  /// <= 0 falls back to the service default (which may be "none").
  double deadline_seconds = 0.0;

  Method method = Method::kSmart;

  /// Stop condition: 0 asks for the whole answer; k > 0 stops evaluation
  /// as soon as k valid nodes are known (an FSM support probe only needs to
  /// learn whether a pattern node reaches the threshold). Pure methods
  /// only: a kSmart request that sets a limit is answered kInvalid.
  size_t max_valid_nodes = 0;

  /// Catalog name of the data graph to run against; empty selects the
  /// service's default graph. Resolution happens at admission: the request
  /// pins whatever snapshot is current then and keeps it for its whole
  /// lifetime, even across a concurrent hot swap.
  std::string graph;
};

/// Terminal state of a request.
enum class RequestStatus {
  /// Complete, exact answer.
  kOk,
  /// Deadline expired mid-evaluation; valid_nodes is a subset of the true
  /// answer (PSI degrades gracefully — partial answers are still sound).
  kTimeout,
  /// The service shut down before or during evaluation.
  kCancelled,
  /// Shed at admission because the queue was at its bound; never executed.
  kRejected,
  /// Malformed request (empty query, missing pivot, or a kSmart request
  /// with max_valid_nodes set).
  kInvalid,
  /// The requested graph name resolved to no catalog snapshot (unknown or
  /// retired); never evaluated.
  kNotFound,
};

const char* RequestStatusName(RequestStatus s);

struct QueryResponse {
  uint64_t id = 0;
  RequestStatus status = RequestStatus::kOk;

  /// Distinct data nodes binding to the pivot, sorted ascending. Complete
  /// iff status == kOk. Under a limit k (QueryRequest::max_valid_nodes),
  /// kOk means a sorted subset of the exact answer of size
  /// min(k, |answer|); which subset may depend on the search schedule.
  std::vector<graph::NodeId> valid_nodes;

  size_t num_candidates = 0;
  size_t cache_hits = 0;
  /// Cache hits whose prediction the evaluation then contradicted (stale or
  /// poisoned entries; the answer is unaffected — see PsiQueryResult).
  size_t cache_mismatches = 0;

  /// True when the service's degradation policy served this kSmart request
  /// with pessimist-only evaluation instead (DESIGN.md §11). The answer is
  /// exact either way; only the latency profile differs.
  bool served_degraded = false;

  /// Version of the graph snapshot this request was evaluated against
  /// (GraphSnapshot::version); 0 when the request never resolved a
  /// snapshot (kRejected / kInvalid / kNotFound). A request runs against
  /// exactly one snapshot end to end — swap-storm asserts this.
  uint64_t snapshot_version = 0;

  /// Admission-to-completion latency (queue wait + execution) — the number
  /// a caller experiences and the one the tail-latency metrics track.
  double latency_seconds = 0.0;
  /// Execution time alone.
  double exec_seconds = 0.0;

  /// Work-stealing operations of this request's parallel search
  /// (DESIGN.md §14). Zero when the worker searched sequentially.
  uint64_t work_steals = 0;

  bool ok() const { return status == RequestStatus::kOk; }
};

/// A group of queries admitted as one unit (DESIGN.md §17). The whole
/// batch pins exactly one snapshot of one graph at admission, so every
/// member query sees the same data even across concurrent hot swaps, and
/// shared preparation (candidate sets, query-signature rows) is sound.
struct BatchRequest {
  /// Caller-chosen correlation id for the batch; 0 lets the service
  /// assign one. Member queries with id 0 get `batch_id * 1000 + index`
  /// so responses correlate back to their slot.
  uint64_t id = 0;

  /// Member queries. Per-query `graph` fields are ignored — the batch
  /// pins one snapshot for all members (see `graph` below). Per-query
  /// deadlines and methods are honored individually.
  std::vector<QueryRequest> queries;

  /// Catalog name of the data graph the whole batch runs against; empty
  /// selects the service default.
  std::string graph;

  /// Batch-wide execution budget in seconds measured from admission,
  /// applied to member queries that carry no deadline of their own;
  /// <= 0 falls back to the service default.
  double deadline_seconds = 0.0;
};

/// Settlement of a batch: one QueryResponse per member query (same order),
/// plus batch-level accounting. Member queries degrade individually — a
/// malformed or timed-out member never poisons its siblings.
struct BatchResponse {
  uint64_t id = 0;
  /// Per-member responses, parallel to BatchRequest::queries.
  std::vector<QueryResponse> responses;
  /// Snapshot version the whole batch ran against (0 if the graph name
  /// resolved to no snapshot).
  uint64_t snapshot_version = 0;
  /// Member queries that reused shared batch-context preparation.
  uint64_t context_hits = 0;
  /// Member queries that abandoned the shared-context fast path (the
  /// service.batch fault site) and were evaluated standalone.
  uint64_t degraded_queries = 0;
  /// Admission-to-settlement latency of the whole batch.
  double latency_seconds = 0.0;

  /// True iff every member completed exactly.
  bool ok() const {
    for (const QueryResponse& r : responses) {
      if (!r.ok()) return false;
    }
    return true;
  }
};

inline const char* MethodName(Method m) {
  switch (m) {
    case Method::kSmart:
      return "smart";
    case Method::kOptimistic:
      return "optimistic";
    case Method::kPessimistic:
      return "pessimistic";
  }
  return "unknown";
}

inline const char* RequestStatusName(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kTimeout:
      return "timeout";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kInvalid:
      return "invalid";
    case RequestStatus::kNotFound:
      return "not_found";
  }
  return "unknown";
}

/// Prints the status name, so a failed test comparison reads `timeout`
/// rather than a byte dump of the enum.
inline void PrintTo(RequestStatus s, std::ostream* os) {
  *os << RequestStatusName(s);
}

}  // namespace psi::service

#endif  // SMARTPSI_SERVICE_REQUEST_H_
