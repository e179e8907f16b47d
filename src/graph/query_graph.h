#ifndef SMARTPSI_GRAPH_QUERY_GRAPH_H_
#define SMARTPSI_GRAPH_QUERY_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace psi::graph {

/// Small mutable labeled graph used for queries and FSM patterns.
///
/// Holds at most kMaxNodes nodes so adjacency can be kept as per-node 64-bit
/// bitsets, giving O(1) edge tests inside the matching hot loops. A query
/// additionally carries a pivot node (paper Definition 2.1); patterns in the
/// FSM module reuse the structure with the pivot unset.
///
/// Storage is flat (DESIGN.md §5): one node array (label, offset of the
/// node's first neighbour, neighbour bitset) ending in a sentinel, and one
/// neighbour array grouped by node. A graph is two heap blocks whatever its
/// size, which keeps a mined pattern set of thousands of patterns small.
class QueryGraph {
 public:
  static constexpr size_t kMaxNodes = 64;

  QueryGraph() = default;

  /// Adds a node; returns its id. Asserts below kMaxNodes.
  NodeId AddNode(Label label);

  /// Adds an undirected edge. Duplicate edges and self-loops are rejected
  /// (returns false).
  bool AddEdge(NodeId u, NodeId v, Label label = kDefaultEdgeLabel);

  size_t num_nodes() const { return nodes_.empty() ? 0 : nodes_.size() - 1; }
  size_t num_edges() const { return nbrs_.size() / 2; }

  Label label(NodeId v) const { return nodes_[v].label; }
  void set_label(NodeId v, Label label) { nodes_[v].label = label; }

  size_t degree(NodeId v) const {
    return nodes_[v + 1].begin - nodes_[v].begin;
  }

  /// Neighbors of `v` as (neighbor, edge label) pairs, insertion order.
  /// Valid until the next AddNode/AddEdge.
  std::span<const std::pair<NodeId, Label>> neighbors(NodeId v) const {
    return {nbrs_.data() + nodes_[v].begin, degree(v)};
  }

  bool HasEdge(NodeId u, NodeId v) const {
    return (nodes_[u].bits >> v) & 1ULL;
  }

  /// Label of edge (u, v); asserts the edge exists.
  Label EdgeLabel(NodeId u, NodeId v) const;

  /// Bitset of neighbors of `v` (bit i set iff edge (v, i) exists).
  uint64_t neighbor_bits(NodeId v) const { return nodes_[v].bits; }

  void set_pivot(NodeId v) { pivot_ = v; }
  NodeId pivot() const { return pivot_; }
  bool has_pivot() const { return pivot_ != kInvalidNode; }

  /// True iff the graph is connected (empty graph counts as connected).
  bool IsConnected() const;

  /// Maximum node label value + 1 (0 for an empty graph).
  size_t max_label_plus_one() const;

  /// Human-readable dump: "Q(pivot=0) 0:A 1:B ; 0-1:x ...".
  std::string ToString() const;

  /// Order-sensitive structural hash over labels, edges (with edge labels)
  /// and the pivot. Two equal queries always hash equally; isomorphic but
  /// differently-numbered queries generally do not (this is a cache key,
  /// not a canonical form). Used to partition the service's shared
  /// prediction cache by query.
  uint64_t Fingerprint() const;

 private:
  struct Node {
    Label label = 0;
    /// Offset of the node's first neighbour in nbrs_; the next node's (or
    /// the sentinel's) begin ends the group.
    uint32_t begin = 0;
    uint64_t bits = 0;
  };

  /// Appends (nbr, label) to the end of `v`'s neighbour group.
  void AppendNeighbor(NodeId v, NodeId nbr, Label label);

  /// num_nodes() nodes plus a sentinel; empty for the empty graph.
  std::vector<Node> nodes_;
  std::vector<std::pair<NodeId, Label>> nbrs_;
  NodeId pivot_ = kInvalidNode;
};

}  // namespace psi::graph

#endif  // SMARTPSI_GRAPH_QUERY_GRAPH_H_
