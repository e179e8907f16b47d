#include "graph/query_graph.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"
#include "util/random.h"

namespace psi::graph {
namespace {

TEST(QueryGraphTest, BuildBasics) {
  QueryGraph q;
  const NodeId a = q.AddNode(3);
  const NodeId b = q.AddNode(5);
  EXPECT_TRUE(q.AddEdge(a, b, 2));
  EXPECT_EQ(q.num_nodes(), 2u);
  EXPECT_EQ(q.num_edges(), 1u);
  EXPECT_EQ(q.label(a), 3u);
  EXPECT_EQ(q.degree(a), 1u);
  EXPECT_TRUE(q.HasEdge(a, b));
  EXPECT_TRUE(q.HasEdge(b, a));
  EXPECT_EQ(q.EdgeLabel(a, b), 2u);
  EXPECT_EQ(q.EdgeLabel(b, a), 2u);
}

TEST(QueryGraphTest, RejectsSelfLoopsAndDuplicates) {
  QueryGraph q;
  const NodeId a = q.AddNode(0);
  const NodeId b = q.AddNode(0);
  EXPECT_FALSE(q.AddEdge(a, a));
  EXPECT_TRUE(q.AddEdge(a, b));
  EXPECT_FALSE(q.AddEdge(b, a));  // duplicate in reverse
  EXPECT_EQ(q.num_edges(), 1u);
}

TEST(QueryGraphTest, NeighborBits) {
  const QueryGraph q = testing::MakeFigure2Query();
  // v1 is adjacent to v0, v2, v3.
  EXPECT_EQ(q.neighbor_bits(1), (1ULL << 0) | (1ULL << 2) | (1ULL << 3));
}

TEST(QueryGraphTest, PivotManagement) {
  QueryGraph q;
  q.AddNode(0);
  EXPECT_FALSE(q.has_pivot());
  q.set_pivot(0);
  EXPECT_TRUE(q.has_pivot());
  EXPECT_EQ(q.pivot(), 0u);
}

TEST(QueryGraphTest, ConnectivityDetection) {
  QueryGraph q;
  q.AddNode(0);
  q.AddNode(0);
  q.AddNode(0);
  EXPECT_FALSE(q.IsConnected());
  q.AddEdge(0, 1);
  EXPECT_FALSE(q.IsConnected());
  q.AddEdge(1, 2);
  EXPECT_TRUE(q.IsConnected());
}

TEST(QueryGraphTest, EmptyAndSingletonAreConnected) {
  QueryGraph empty;
  EXPECT_TRUE(empty.IsConnected());
  QueryGraph single;
  single.AddNode(0);
  EXPECT_TRUE(single.IsConnected());
}

TEST(QueryGraphTest, MaxLabelPlusOne) {
  QueryGraph q;
  EXPECT_EQ(q.max_label_plus_one(), 0u);
  q.AddNode(4);
  q.AddNode(2);
  EXPECT_EQ(q.max_label_plus_one(), 5u);
}

TEST(QueryGraphTest, SetLabel) {
  QueryGraph q;
  const NodeId a = q.AddNode(1);
  q.set_label(a, 9);
  EXPECT_EQ(q.label(a), 9u);
}

TEST(QueryGraphTest, ToStringContainsStructure) {
  const QueryGraph q = testing::MakeFigure1Query();
  const std::string s = q.ToString();
  EXPECT_NE(s.find("pivot=0"), std::string::npos);
  EXPECT_NE(s.find("0-1"), std::string::npos);
}

TEST(QueryGraphTest, NeighborsOrderIsInsertionOrder) {
  QueryGraph q;
  q.AddNode(0);
  q.AddNode(0);
  q.AddNode(0);
  q.AddEdge(0, 2, 7);
  q.AddEdge(0, 1, 8);
  const auto& nbrs = q.neighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].first, 2u);
  EXPECT_EQ(nbrs[0].second, 7u);
  EXPECT_EQ(nbrs[1].first, 1u);
  EXPECT_EQ(nbrs[1].second, 8u);
}

// ---------------------------------------------------------------------------
// Model test: the flat layout against a per-node adjacency-list reference
// that keeps the pre-flat fingerprint and dump algorithms verbatim.
// ---------------------------------------------------------------------------

struct ReferenceGraph {
  std::vector<Label> labels;
  std::vector<std::vector<std::pair<NodeId, Label>>> adjacency;
  NodeId pivot = kInvalidNode;

  bool HasEdge(NodeId u, NodeId v) const {
    for (const auto& [nbr, label] : adjacency[u]) {
      if (nbr == v) return true;
    }
    return false;
  }

  bool AddEdge(NodeId u, NodeId v, Label label) {
    if (u == v || HasEdge(u, v)) return false;
    adjacency[u].emplace_back(v, label);
    adjacency[v].emplace_back(u, label);
    return true;
  }

  uint64_t Fingerprint() const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto absorb = [&h](uint64_t x) {
      h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
    };
    absorb(labels.size());
    for (const Label l : labels) absorb(l);
    for (size_t v = 0; v < labels.size(); ++v) {
      for (const auto& [nbr, label] : adjacency[v]) {
        if (v < nbr) {
          absorb((static_cast<uint64_t>(v) << 32) | nbr);
          absorb(label);
        }
      }
    }
    absorb(static_cast<uint64_t>(pivot) + 1);
    return h;
  }

  std::string ToString() const {
    std::ostringstream oss;
    oss << "Q(";
    if (pivot != kInvalidNode) {
      oss << "pivot=" << pivot;
    } else {
      oss << "no pivot";
    }
    oss << ")";
    for (size_t v = 0; v < labels.size(); ++v) {
      oss << " " << v << ":" << labels[v];
    }
    oss << " ;";
    for (size_t v = 0; v < labels.size(); ++v) {
      for (const auto& [nbr, label] : adjacency[v]) {
        if (v < nbr) oss << " " << v << "-" << nbr << ":" << label;
      }
    }
    return oss.str();
  }
};

void ExpectMatchesReference(const QueryGraph& q, const ReferenceGraph& ref) {
  ASSERT_EQ(q.num_nodes(), ref.labels.size());
  size_t endpoints = 0;
  for (NodeId v = 0; v < ref.labels.size(); ++v) {
    EXPECT_EQ(q.label(v), ref.labels[v]) << "node " << v;
    ASSERT_EQ(q.degree(v), ref.adjacency[v].size()) << "node " << v;
    endpoints += ref.adjacency[v].size();
    const auto nbrs = q.neighbors(v);
    uint64_t bits = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(nbrs[i], ref.adjacency[v][i]) << "node " << v << " slot " << i;
      bits |= 1ULL << ref.adjacency[v][i].first;
      EXPECT_EQ(q.EdgeLabel(v, ref.adjacency[v][i].first),
                ref.adjacency[v][i].second);
    }
    EXPECT_EQ(q.neighbor_bits(v), bits) << "node " << v;
    for (NodeId w = 0; w < ref.labels.size(); ++w) {
      EXPECT_EQ(q.HasEdge(v, w), ref.HasEdge(v, w)) << v << "-" << w;
    }
  }
  EXPECT_EQ(q.num_edges(), endpoints / 2);
  EXPECT_EQ(q.pivot(), ref.pivot);
  EXPECT_EQ(q.Fingerprint(), ref.Fingerprint());
  EXPECT_EQ(q.ToString(), ref.ToString());
}

TEST(QueryGraphModelTest, RandomGraphsMatchAdjacencyListModel) {
  const uint64_t seed = testing::TestSeed(404);
  PSI_LOG_TEST_SEED(seed);
  util::Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    QueryGraph q;
    ReferenceGraph ref;
    // Up to kMaxNodes nodes; nodes and edges interleave so later nodes get
    // edges while earlier groups already hold neighbours.
    const size_t target =
        trial == 0 ? QueryGraph::kMaxNodes
                   : 1 + rng.NextBounded(QueryGraph::kMaxNodes);
    const size_t ops = target * (1 + rng.NextBounded(6));
    while (ref.labels.size() < target || ref.labels.size() < 2) {
      const Label label = static_cast<Label>(rng.NextBounded(7));
      ASSERT_EQ(q.AddNode(label), ref.labels.size());
      ref.labels.push_back(label);
      ref.adjacency.emplace_back();
      if (ref.labels.size() >= target) break;
      for (int e = 0; e < 2 && rng.NextBounded(2) == 0; ++e) {
        const NodeId u = static_cast<NodeId>(
            rng.NextBounded(ref.labels.size()));
        const NodeId v = static_cast<NodeId>(
            rng.NextBounded(ref.labels.size()));
        const Label el = static_cast<Label>(rng.NextBounded(3));
        ASSERT_EQ(q.AddEdge(u, v, el), ref.AddEdge(u, v, el));
      }
    }
    for (size_t i = 0; i < ops; ++i) {
      const NodeId u =
          static_cast<NodeId>(rng.NextBounded(ref.labels.size()));
      // Every tenth attempt is a self-loop; repeats of existing edges (in
      // either direction) come up on their own.
      const NodeId v =
          i % 10 == 0 ? u
                      : static_cast<NodeId>(rng.NextBounded(ref.labels.size()));
      const Label el = static_cast<Label>(rng.NextBounded(3));
      ASSERT_EQ(q.AddEdge(u, v, el), ref.AddEdge(u, v, el))
          << u << "-" << v;
    }
    if (rng.NextBounded(2) == 0) {
      const NodeId pivot =
          static_cast<NodeId>(rng.NextBounded(ref.labels.size()));
      q.set_pivot(pivot);
      ref.pivot = pivot;
    }
    ExpectMatchesReference(q, ref);

    // A rejected duplicate or self-loop leaves everything unchanged.
    const auto& [nbr, elabel] = ref.adjacency[0].empty()
                                    ? std::pair<NodeId, Label>{0, 0}
                                    : ref.adjacency[0].front();
    EXPECT_FALSE(q.AddEdge(0, 0, 1));
    if (!ref.adjacency[0].empty()) {
      EXPECT_FALSE(q.AddEdge(nbr, 0, elabel + 1));
    }
    ExpectMatchesReference(q, ref);

    // Copies and moves carry the structure; the copy stays independent.
    QueryGraph copy = q;
    ExpectMatchesReference(copy, ref);
    QueryGraph moved = std::move(copy);
    ExpectMatchesReference(moved, ref);
    QueryGraph assigned;
    assigned = moved;
    ExpectMatchesReference(assigned, ref);
    if (ref.labels.size() < QueryGraph::kMaxNodes) {
      assigned.AddNode(1);
      assigned.AddEdge(0, static_cast<NodeId>(ref.labels.size()), 2);
      ExpectMatchesReference(moved, ref);
      ReferenceGraph grown = ref;
      grown.labels.push_back(1);
      grown.adjacency.emplace_back();
      grown.AddEdge(0, static_cast<NodeId>(ref.labels.size()), 2);
      ExpectMatchesReference(assigned, grown);
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace psi::graph
