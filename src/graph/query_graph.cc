#include "graph/query_graph.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace psi::graph {

NodeId QueryGraph::AddNode(Label label) {
  assert(num_nodes() < kMaxNodes);
  if (nodes_.empty()) nodes_.emplace_back();  // the sentinel
  // The old sentinel becomes the new node (its begin is already
  // nbrs_.size()); a fresh sentinel follows it.
  const NodeId v = static_cast<NodeId>(nodes_.size() - 1);
  nodes_.back().label = label;
  nodes_.push_back(Node{0, static_cast<uint32_t>(nbrs_.size()), 0});
  return v;
}

void QueryGraph::AppendNeighbor(NodeId v, NodeId nbr, Label label) {
  nbrs_.insert(nbrs_.begin() + nodes_[v + 1].begin, {nbr, label});
  for (size_t w = v + 1; w < nodes_.size(); ++w) ++nodes_[w].begin;
  nodes_[v].bits |= 1ULL << nbr;
}

bool QueryGraph::AddEdge(NodeId u, NodeId v, Label label) {
  assert(u < num_nodes() && v < num_nodes());
  if (u == v || HasEdge(u, v)) return false;
  AppendNeighbor(u, v, label);
  AppendNeighbor(v, u, label);
  return true;
}

Label QueryGraph::EdgeLabel(NodeId u, NodeId v) const {
  assert(HasEdge(u, v));
  for (const auto& [nbr, label] : neighbors(u)) {
    if (nbr == v) return label;
  }
  assert(false && "edge missing despite bitset");
  return kDefaultEdgeLabel;
}

bool QueryGraph::IsConnected() const {
  const size_t n = num_nodes();
  if (n == 0) return true;
  uint64_t visited = 1ULL;  // node 0
  uint64_t frontier = 1ULL;
  while (frontier != 0) {
    uint64_t next = 0;
    for (size_t v = 0; v < n; ++v) {
      if ((frontier >> v) & 1ULL) next |= nodes_[v].bits;
    }
    frontier = next & ~visited;
    visited |= next;
  }
  const uint64_t all = n == 64 ? ~0ULL : (1ULL << n) - 1;
  return (visited & all) == all;
}

size_t QueryGraph::max_label_plus_one() const {
  size_t result = 0;
  for (size_t v = 0; v < num_nodes(); ++v) {
    result = std::max(result, static_cast<size_t>(nodes_[v].label) + 1);
  }
  return result;
}

uint64_t QueryGraph::Fingerprint() const {
  // SplitMix64-style accumulation: absorb one 64-bit word per fact.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto absorb = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
  };
  const size_t n = num_nodes();
  absorb(n);
  for (size_t v = 0; v < n; ++v) absorb(nodes_[v].label);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [nbr, label] : neighbors(v)) {
      if (v < nbr) {
        absorb((static_cast<uint64_t>(v) << 32) | nbr);
        absorb(label);
      }
    }
  }
  absorb(static_cast<uint64_t>(pivot_) + 1);
  return h;
}

std::string QueryGraph::ToString() const {
  std::ostringstream oss;
  oss << "Q(";
  if (has_pivot()) {
    oss << "pivot=" << pivot_;
  } else {
    oss << "no pivot";
  }
  oss << ")";
  const size_t n = num_nodes();
  for (size_t v = 0; v < n; ++v) {
    oss << " " << v << ":" << nodes_[v].label;
  }
  oss << " ;";
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [nbr, label] : neighbors(v)) {
      if (v < nbr) oss << " " << v << "-" << nbr << ":" << label;
    }
  }
  return oss.str();
}

}  // namespace psi::graph
