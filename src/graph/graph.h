#ifndef SMARTPSI_GRAPH_GRAPH_H_
#define SMARTPSI_GRAPH_GRAPH_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.h"

namespace psi::graph {

class GraphBuilder;

/// Immutable undirected labeled graph in CSR (compressed sparse row) form.
///
/// This is the data-graph substrate every matching engine runs against:
/// * per-node sorted adjacency (binary-searchable for O(log d) edge checks),
/// * parallel per-edge labels,
/// * a label index grouping node ids by label (candidate extraction),
/// all laid out in contiguous arrays for cache-friendly traversal.
///
/// Construct via GraphBuilder. Instances are immutable after construction
/// and safe to share across threads.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Explicit deep copy. The implicit copy operations are deleted so a
  /// multi-GB CSR graph can never be duplicated by accident; the snapshot
  /// catalog uses Clone() to give each published snapshot its own arrays.
  Graph Clone() const;

  size_t num_nodes() const { return node_labels_.size(); }

  /// Number of undirected edges (each stored twice internally).
  size_t num_edges() const { return neighbors_.size() / 2; }

  /// Number of distinct node labels (= max label + 1; 0 for a
  /// default-constructed graph, whose label index is empty — the
  /// unconditional `size() - 1` would wrap to SIZE_MAX).
  size_t num_labels() const {
    return label_offsets_.empty() ? 0 : label_offsets_.size() - 1;
  }

  Label label(NodeId u) const { return node_labels_[u]; }

  size_t degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Sorted neighbor ids of `u`.
  std::span<const NodeId> neighbors(NodeId u) const {
    return {neighbors_.data() + offsets_[u],
            neighbors_.data() + offsets_[u + 1]};
  }

  /// Edge labels aligned with neighbors(u).
  std::span<const Label> edge_labels(NodeId u) const {
    return {edge_labels_.data() + offsets_[u],
            edge_labels_.data() + offsets_[u + 1]};
  }

  /// O(log degree(u)) adjacency check.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Label of edge (u, v) if present.
  std::optional<Label> EdgeLabelBetween(NodeId u, NodeId v) const;

  /// All node ids carrying label `l`, sorted ascending. Empty span for an
  /// unused label value < num_labels() and for any l >= num_labels() (the
  /// bounds check keeps out-of-alphabet queries — and the empty graph —
  /// from indexing past the label index).
  std::span<const NodeId> nodes_with_label(Label l) const {
    if (static_cast<size_t>(l) + 1 >= label_offsets_.size()) return {};
    return {nodes_by_label_.data() + label_offsets_[l],
            nodes_by_label_.data() + label_offsets_[l + 1]};
  }

  /// Count of nodes carrying label `l`; 0 for l >= num_labels() (same
  /// bounds rule as nodes_with_label).
  size_t label_frequency(Label l) const {
    if (static_cast<size_t>(l) + 1 >= label_offsets_.size()) return 0;
    return label_offsets_[l + 1] - label_offsets_[l];
  }

  double average_degree() const {
    return num_nodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) /
                     static_cast<double>(num_nodes());
  }

 private:
  friend class GraphBuilder;

  std::vector<uint64_t> offsets_;     // num_nodes + 1
  std::vector<NodeId> neighbors_;     // 2 * num_edges, sorted per node
  std::vector<Label> edge_labels_;    // parallel to neighbors_
  std::vector<Label> node_labels_;    // num_nodes

  // Label index: node ids grouped by label.
  std::vector<NodeId> nodes_by_label_;   // num_nodes
  std::vector<uint64_t> label_offsets_;  // num_labels + 1
};

}  // namespace psi::graph

#endif  // SMARTPSI_GRAPH_GRAPH_H_
