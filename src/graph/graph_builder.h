#ifndef SMARTPSI_GRAPH_GRAPH_BUILDER_H_
#define SMARTPSI_GRAPH_GRAPH_BUILDER_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace psi::graph {

/// Accumulates nodes and undirected edges, then finalizes a CSR Graph.
///
///   GraphBuilder b;
///   NodeId a = b.AddNode(/*label=*/0);
///   NodeId c = b.AddNode(/*label=*/1);
///   b.AddEdge(a, c);
///   Graph g = std::move(b).Build();
///
/// Self-loops are ignored; duplicate edges are deduplicated (first-added
/// edge label wins). Build() is destructive — the builder is consumed.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes internal arrays (optional).
  void Reserve(size_t nodes, size_t edges);

  /// Adds a node and returns its id (ids are dense, in insertion order).
  NodeId AddNode(Label label);

  /// Adds `count` nodes with label 0; use SetNodeLabel to relabel.
  void AddNodes(size_t count);

  void SetNodeLabel(NodeId u, Label label);

  /// Adds an undirected edge. Out-of-range endpoints are an error (assert);
  /// self-loops are silently dropped. Returns false for dropped self-loops.
  bool AddEdge(NodeId u, NodeId v, Label label = kDefaultEdgeLabel);

  size_t num_nodes() const { return node_labels_.size(); }

  /// Finalizes into an immutable Graph (sorting adjacency, deduplicating,
  /// building the label index). Consumes the builder.
  Graph Build() &&;

  /// Adopts already-finalized CSR arrays (a mapped .psnap GRAPH section;
  /// DESIGN.md §16.2) after validating every invariant Build() establishes:
  /// offsets monotone from 0 to neighbors.size(); per-node strictly
  /// ascending neighbor ids in range, no self-loops; adjacency and edge
  /// labels symmetric; node labels inside the label alphabet; label index
  /// buckets ascending, label-consistent, and covering every node exactly
  /// once (trailing empty labels are permitted). The arrays are *copied*
  /// into the Graph — CSR adoption is about trusting no untrusted bytes,
  /// not zero-copy; the float signature payload is where zero-copy pays.
  /// Returns InvalidArgument naming the first violated invariant.
  static util::Result<Graph> FromCsr(std::span<const uint64_t> offsets,
                                     std::span<const NodeId> neighbors,
                                     std::span<const Label> edge_labels,
                                     std::span<const Label> node_labels,
                                     std::span<const NodeId> nodes_by_label,
                                     std::span<const uint64_t> label_offsets);

 private:
  struct Edge {
    NodeId u;
    NodeId v;
    Label label;
  };

  std::vector<Label> node_labels_;
  std::vector<Edge> edges_;
};

}  // namespace psi::graph

#endif  // SMARTPSI_GRAPH_GRAPH_BUILDER_H_
