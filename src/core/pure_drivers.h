#ifndef SMARTPSI_CORE_PURE_DRIVERS_H_
#define SMARTPSI_CORE_PURE_DRIVERS_H_

#include <vector>

#include "core/query_context.h"
#include "graph/graph.h"
#include "graph/query_graph.h"
#include "match/search_scratch.h"
#include "match/search_stats.h"
#include "signature/signature_matrix.h"
#include "signature/sparse_requirement.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace psi::core {

/// The single-method baselines of Figure 10: apply one PSI method to every
/// candidate node, with the selectivity-heuristic plan.
enum class PureStrategy {
  /// Super-optimistic pass + full optimistic fallback on every node.
  kOptimistic,
  /// Signature-pruned pessimistic search on every node.
  kPessimistic,
};

struct PureDriverResult {
  std::vector<graph::NodeId> valid_nodes;  // sorted
  /// False if the deadline/stop interrupted evaluation (valid_nodes is a
  /// subset of the true answer).
  bool complete = true;
  double seconds = 0.0;
  match::SearchStats stats;
};

struct PureDriverOptions {
  PureStrategy strategy = PureStrategy::kPessimistic;
  size_t super_optimistic_limit = 10;
  util::Deadline deadline;
  util::StopToken stop;
  /// Intra-query parallelism: split the pivot-candidate list across this
  /// many work-stealing workers (1 = sequential). Each worker owns its
  /// evaluator, scratch and stats; a complete parallel run returns
  /// valid_nodes bit-identical to the sequential run.
  size_t search_threads = 1;
  /// Optional shared batch preparation (DESIGN.md §17): when non-null,
  /// PrepareQuery is skipped and the driver evaluates against this
  /// immutable context — equal by construction to what PrepareQuery would
  /// return, so the answer is bit-identical. The driver copies the
  /// candidate list before any in-place filtering; the context is never
  /// written.
  const QueryContext* prepared = nullptr;
  /// Sparse view of the pivot's signature row matching `prepared` (the
  /// level-0 requirement BindQuery would build). Lets the pessimistic
  /// prefilter run the same bulk kernel without constructing a throwaway
  /// evaluator binding. Ignored when `prepared` is null.
  const signature::SparseRequirement* prepared_pivot_requirement = nullptr;
  /// Optional scratch pool: each worker leases its search arena from here
  /// instead of allocating privately, so a batch of queries reuses the
  /// same warmed-up buffers (DESIGN.md §9, §17).
  match::SearchScratchPool* scratch_pool = nullptr;
};

/// Evaluates the full PSI query with one fixed method. `graph_sigs` must
/// cover `g`.
PureDriverResult EvaluatePure(const graph::Graph& g,
                              const signature::SignatureMatrix& graph_sigs,
                              const graph::QueryGraph& q,
                              const PureDriverOptions& options);

}  // namespace psi::core

#endif  // SMARTPSI_CORE_PURE_DRIVERS_H_
