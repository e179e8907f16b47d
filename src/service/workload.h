#ifndef SMARTPSI_SERVICE_WORKLOAD_H_
#define SMARTPSI_SERVICE_WORKLOAD_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "service/request.h"
#include "util/random.h"
#include "util/status.h"

namespace psi::service {

/// Newline-delimited request format, one request per line, so workloads
/// stream through psi_serve's stdin without block framing:
///
///   v=<l0>,<l1>,... e=<u>-<v>[-<label>],... p=<pivot> [d=<ms>] [m=<method>] [id=<n>] [g=<name>]
///
/// `v=` lists node labels in id order (node count is implied), `e=` the
/// undirected edges, `p=` the pivot node. `d=` is the per-request deadline
/// in milliseconds (0/absent = service default), `m=` one of
/// smart|optimistic|pessimistic, `id=` a caller correlation id, `g=` the
/// catalog name of the data graph to run against (absent = the service's
/// default graph). Tokens may appear in any order; `#` starts a comment
/// line.
///
/// Example — the paper's Figure 1 triangle with a 50 ms budget:
///
///   v=0,1,2 e=0-1,1-2,0-2 p=0 d=50 m=smart
util::Result<QueryRequest> ParseWorkloadLine(const std::string& line);

/// The inverse of ParseWorkloadLine.
// psi-check: allow(unused-decl) -- test oracle in service_workload_test
std::string FormatWorkloadLine(const QueryRequest& request);

/// Recipe for sampling a request stream out of a data graph.
struct WorkloadSpec {
  size_t count = 100;
  /// Nodes per extracted query (random-walk-with-restart induced subgraph,
  /// the paper's §5.1 workload).
  size_t query_size = 5;
  /// Per-request deadline drawn uniformly from [min, max] milliseconds;
  /// both 0 means no per-request deadline.
  double deadline_ms_min = 0.0;
  double deadline_ms_max = 0.0;
  Method method = Method::kSmart;
};

/// Extracts `spec.count` requests from `g` (fewer if extraction fails on
/// some attempts, e.g. all components smaller than query_size). Ids are
/// assigned 1..n.
std::vector<QueryRequest> ExtractWorkload(const graph::Graph& g,
                                          const WorkloadSpec& spec,
                                          util::Rng& rng);

}  // namespace psi::service

#endif  // SMARTPSI_SERVICE_WORKLOAD_H_
