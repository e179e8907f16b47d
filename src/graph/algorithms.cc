#include "graph/algorithms.h"

#include <algorithm>
#include <cassert>

namespace psi::graph {

BoundedBfs::BoundedBfs(size_t num_nodes)
    : seen_epoch_(num_nodes, 0), depth_(num_nodes, 0) {}

std::vector<uint32_t> ConnectedComponents(const Graph& g,
                                          size_t* num_components) {
  std::vector<uint32_t> comp(g.num_nodes(), UINT32_MAX);
  std::vector<NodeId> queue;
  uint32_t next_comp = 0;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (comp[start] != UINT32_MAX) continue;
    comp[start] = next_comp;
    queue.clear();
    queue.push_back(start);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const NodeId v : g.neighbors(queue[head])) {
        if (comp[v] == UINT32_MAX) {
          comp[v] = next_comp;
          queue.push_back(v);
        }
      }
    }
    ++next_comp;
  }
  if (num_components != nullptr) *num_components = next_comp;
  return comp;
}

DegreeStats ComputeDegreeStats(const Graph& g) {
  DegreeStats stats;
  if (g.num_nodes() == 0) return stats;
  std::vector<size_t> degrees(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) degrees[u] = g.degree(u);
  std::sort(degrees.begin(), degrees.end());
  stats.min = degrees.front();
  stats.max = degrees.back();
  stats.mean = g.average_degree();
  const size_t mid = degrees.size() / 2;
  stats.median = degrees.size() % 2 == 1
                     ? static_cast<double>(degrees[mid])
                     : (static_cast<double>(degrees[mid - 1]) +
                        static_cast<double>(degrees[mid])) /
                           2.0;
  return stats;
}

QueryGraph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes) {
  assert(nodes.size() <= QueryGraph::kMaxNodes);
  QueryGraph q;
  for (const NodeId u : nodes) q.AddNode(g.label(u));
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      const auto edge_label = g.EdgeLabelBetween(nodes[i], nodes[j]);
      if (edge_label.has_value()) {
        q.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j), *edge_label);
      }
    }
  }
  return q;
}

}  // namespace psi::graph
