#ifndef SMARTPSI_MATCH_CANDIDATES_H_
#define SMARTPSI_MATCH_CANDIDATES_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "match/search_stats.h"
#include "signature/signature_matrix.h"

namespace psi::match {

/// Candidate pivot bindings for a pivoted query (the candidate extraction
/// step of the SmartPSI architecture, Figure 6): all data nodes that
///   * carry the pivot's label,
///   * have at least the pivot's degree, and
///   * pass a cheap pivot-neighborhood pre-check: for every (edge label,
///     neighbor label) pair class among the pivot's query edges, the node
///     has at least as many matching data edges. A node missing such an
///     edge can never bind the pivot (query neighbors map injectively), so
///     obviously-dead candidates die here, before any signature work.
/// Sorted ascending. The output vector is reserved from the pivot label's
/// bucket size, so extraction never reallocates.
std::vector<graph::NodeId> ExtractPivotCandidates(const graph::Graph& g,
                                                  const graph::QueryGraph& q);

/// The pessimist's bulk pivot prefilter (Proposition 3.2): one kernel sweep
/// that removes, in place and order-preserving, every candidate whose
/// signature row cannot satisfy `pivot_row`, the pivot's query-signature
/// row. These are exactly the candidates PsiEvaluator's per-candidate pivot
/// check would prune, so the survivors' runs set
/// PsiEvaluator::Options::pivot_prefiltered. Counts one signature check per
/// candidate and each prune in `stats`.
void FilterPivotCandidates(const signature::SignatureMatrix& graph_sigs,
                           std::span<const float> pivot_row,
                           std::vector<graph::NodeId>& candidates,
                           SearchStats& stats);

}  // namespace psi::match

#endif  // SMARTPSI_MATCH_CANDIDATES_H_
