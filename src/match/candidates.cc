#include "match/candidates.h"

#include <cassert>

#include "signature/kernels.h"
#include "signature/sparse_requirement.h"

namespace psi::match {

namespace {

/// One (edge label, neighbor label) pair class of the pivot's query edges.
/// Queries have at most QueryGraph::kMaxNodes - 1 pivot edges, so linear
/// scans over these stay in cache and beat any hashed lookup.
struct EdgeRequirement {
  graph::Label edge_label;
  graph::Label node_label;
  uint32_t count;
};

}  // namespace

std::vector<graph::NodeId> ExtractPivotCandidates(const graph::Graph& g,
                                                  const graph::QueryGraph& q) {
  assert(q.has_pivot());
  std::vector<graph::NodeId> candidates;
  const graph::NodeId pivot = q.pivot();
  const graph::Label label = q.label(pivot);
  if (label >= g.num_labels()) return candidates;
  const size_t min_degree = q.degree(pivot);

  // Multiset of (edge label, neighbor label) pairs the pivot's edges
  // demand. If some demanded neighbor label cannot occur in the data graph
  // at all, no candidate can qualify.
  std::vector<EdgeRequirement> required;
  required.reserve(q.degree(pivot));
  for (const auto& [nbr, edge_label] : q.neighbors(pivot)) {
    const graph::Label nbr_label = q.label(nbr);
    if (nbr_label >= g.num_labels() || g.label_frequency(nbr_label) == 0) {
      return candidates;
    }
    bool merged = false;
    for (EdgeRequirement& r : required) {
      if (r.edge_label == edge_label && r.node_label == nbr_label) {
        ++r.count;
        merged = true;
        break;
      }
    }
    if (!merged) required.push_back({edge_label, nbr_label, 1});
  }

  const auto bucket = g.nodes_with_label(label);
  candidates.reserve(bucket.size());
  std::vector<uint32_t> remaining(required.size());
  for (const graph::NodeId u : bucket) {
    if (g.degree(u) < min_degree) continue;
    // Pre-check: u must cover every pair class's multiplicity. Early-out
    // as soon as all requirements are met, so for viable candidates this
    // usually stops after the first few neighbors.
    size_t unmet = required.size();
    for (size_t r = 0; r < required.size(); ++r) remaining[r] = required[r].count;
    const auto nbrs = g.neighbors(u);
    const auto edge_labels = g.edge_labels(u);
    for (size_t i = 0; i < nbrs.size() && unmet > 0; ++i) {
      const graph::Label nbr_label = g.label(nbrs[i]);
      for (size_t r = 0; r < required.size(); ++r) {
        if (remaining[r] > 0 && edge_labels[i] == required[r].edge_label &&
            nbr_label == required[r].node_label) {
          if (--remaining[r] == 0) --unmet;
          break;
        }
      }
    }
    if (unmet == 0) candidates.push_back(u);
  }
  return candidates;
}

void FilterPivotCandidates(const signature::SignatureMatrix& graph_sigs,
                           std::span<const float> pivot_row,
                           std::vector<graph::NodeId>& candidates,
                           SearchStats& stats) {
  stats.signature_checks += candidates.size();
  stats.pruned_by_signature += signature::FilterCandidates(
      graph_sigs, signature::SparseRequirement(pivot_row), candidates);
}

}  // namespace psi::match
