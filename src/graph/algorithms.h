#ifndef SMARTPSI_GRAPH_ALGORITHMS_H_
#define SMARTPSI_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/query_graph.h"
#include "graph/types.h"

namespace psi::graph {

/// Reusable scratch state for repeated bounded BFS traversals (used by the
/// exploration-based signature builder, which runs one BFS per node).
class BoundedBfs {
 public:
  explicit BoundedBfs(size_t num_nodes);

  /// Visits every node within `max_depth` hops of `source`, invoking
  /// `visit(node, depth)` exactly once per reached node (including the
  /// source at depth 0). Distances are shortest-path hop counts.
  template <typename Visitor>
  void Run(const Graph& g, NodeId source, uint32_t max_depth, Visitor visit) {
    ++epoch_;
    queue_.clear();
    queue_.push_back(source);
    seen_epoch_[source] = epoch_;
    depth_[source] = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const NodeId u = queue_[head];
      const uint32_t d = depth_[u];
      visit(u, d);
      if (d == max_depth) continue;
      for (const NodeId v : g.neighbors(u)) {
        if (seen_epoch_[v] != epoch_) {
          seen_epoch_[v] = epoch_;
          depth_[v] = d + 1;
          queue_.push_back(v);
        }
      }
    }
  }

 private:
  std::vector<uint64_t> seen_epoch_;
  std::vector<uint32_t> depth_;
  std::vector<NodeId> queue_;
  uint64_t epoch_ = 0;
};

/// Connected components; returns component id per node and sets
/// `*num_components` if non-null.
// psi-check: allow(unused-decl) -- test oracle in generators_test
std::vector<uint32_t> ConnectedComponents(const Graph& g,
                                          size_t* num_components = nullptr);

/// Degree distribution summary.
struct DegreeStats {
  size_t min = 0;
  size_t max = 0;
  double mean = 0.0;
  double median = 0.0;
};

// psi-check: allow(unused-decl) -- test oracle in generators_test
DegreeStats ComputeDegreeStats(const Graph& g);

/// Builds the query graph induced by `nodes` (data-graph node ids; must be
/// distinct, at most QueryGraph::kMaxNodes). Node i of the result
/// corresponds to nodes[i]; labels and mutual edges (with edge labels) are
/// copied from `g`. No pivot is set.
QueryGraph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace psi::graph

#endif  // SMARTPSI_GRAPH_ALGORITHMS_H_
