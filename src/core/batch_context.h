#ifndef SMARTPSI_CORE_BATCH_CONTEXT_H_
#define SMARTPSI_CORE_BATCH_CONTEXT_H_

#include <map>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "graph/graph.h"
#include "graph/query_graph.h"
#include "signature/signature_matrix.h"

namespace psi::core {

/// Shared preparation for a batch of queries evaluated against one pinned
/// snapshot (DESIGN.md §17). The many-queries-one-graph regime — the FSM
/// miner's per-pivot probes are the canonical case — re-derives the same
/// per-query artifacts over and over: query signatures depend only on the
/// pattern's pivot-independent structure, and the pivot candidate list
/// depends only on the pivot's requirement class (label, degree, and the
/// multiset of (edge label, neighbor label) pairs on its query edges — the
/// exact facts ExtractPivotCandidates reads). BatchEvalContext memoizes
/// both once per distinct key and assembles per-query contexts from the
/// shared pieces, bit-identical to PrepareQuery.
///
/// Keys are exact serialized facts, never hashes: a hash collision would
/// silently share state between different queries and corrupt answers, so
/// the map keys *are* the structural facts themselves.
///
/// Not thread-safe: one context belongs to one batch, whose members are
/// prepared and evaluated one after another on the batch's worker. The
/// returned pointers stay valid for the context's lifetime (map nodes are
/// stable).
class BatchEvalContext {
 public:
  BatchEvalContext(const graph::Graph& g,
                   const signature::SignatureMatrix& graph_sigs)
      : graph_(g), graph_sigs_(graph_sigs) {}

  BatchEvalContext(const BatchEvalContext&) = delete;
  BatchEvalContext& operator=(const BatchEvalContext&) = delete;

  struct Prepared {
    /// Equivalent to PrepareQuery(g, graph_sigs, q); owned by the batch
    /// context and immutable — consumers copy `candidates` before any
    /// in-place filtering.
    const QueryContext* context = nullptr;
    /// True when any component (signatures or candidates) was served from
    /// the batch memo instead of recomputed — the batch_context_hits
    /// signal.
    bool reused = false;
  };

  /// Prepares `q`, reusing memoized signatures/candidates where the keys
  /// match. Bit-identical to PrepareQuery at every step.
  Prepared Prepare(const graph::QueryGraph& q);

 private:
  const graph::Graph& graph_;
  const signature::SignatureMatrix& graph_sigs_;
  /// Query signatures per pivot-independent structure (labels + edges).
  std::map<std::string, signature::SignatureMatrix> sigs_by_structure_;
  /// Pivot candidate lists per pivot requirement class.
  std::map<std::string, std::vector<graph::NodeId>> candidates_by_class_;
  /// Assembled contexts per exact (structure, pivot) query key.
  std::map<std::string, QueryContext> by_query_;
};

}  // namespace psi::core

#endif  // SMARTPSI_CORE_BATCH_CONTEXT_H_
