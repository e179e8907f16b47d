#include "graph/graph.h"

#include <algorithm>

namespace psi::graph {

Graph Graph::Clone() const {
  Graph copy;
  copy.offsets_ = offsets_;
  copy.neighbors_ = neighbors_;
  copy.edge_labels_ = edge_labels_;
  copy.node_labels_ = node_labels_;
  copy.nodes_by_label_ = nodes_by_label_;
  copy.label_offsets_ = label_offsets_;
  return copy;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::optional<Label> Graph::EdgeLabelBetween(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  return edge_labels_[offsets_[u] + static_cast<size_t>(it - nbrs.begin())];
}

}  // namespace psi::graph
