#include "graph/graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "tests/test_fixtures.h"

namespace psi::graph {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_labels(), 0u);
}

TEST(GraphBuilderTest, NodesAndLabels) {
  GraphBuilder b;
  EXPECT_EQ(b.AddNode(5), 0u);
  EXPECT_EQ(b.AddNode(2), 1u);
  b.AddNodes(3);
  b.SetNodeLabel(4, 7);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.label(0), 5u);
  EXPECT_EQ(g.label(1), 2u);
  EXPECT_EQ(g.label(2), 0u);
  EXPECT_EQ(g.label(4), 7u);
  EXPECT_EQ(g.num_labels(), 8u);  // max label + 1
}

TEST(GraphBuilderTest, SelfLoopsDropped) {
  GraphBuilder b;
  b.AddNodes(2);
  EXPECT_FALSE(b.AddEdge(0, 0));
  EXPECT_TRUE(b.AddEdge(0, 1));
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, DuplicateEdgesDeduplicatedFirstLabelWins) {
  GraphBuilder b;
  b.AddNodes(2);
  b.AddEdge(0, 1, 3);
  b.AddEdge(1, 0, 9);  // same undirected edge, different label
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_TRUE(g.EdgeLabelBetween(0, 1).has_value());
  EXPECT_EQ(*g.EdgeLabelBetween(0, 1), 3u);
  EXPECT_EQ(*g.EdgeLabelBetween(1, 0), 3u);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  const Graph g = testing::MakeFigure1Graph();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (const NodeId v : nbrs) {
      EXPECT_TRUE(g.HasEdge(v, u)) << u << "-" << v;
    }
  }
}

TEST(GraphTest, Figure1Shape) {
  const Graph g = testing::MakeFigure1Graph();
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(g.num_labels(), 3u);
  EXPECT_EQ(g.degree(0), 4u);  // u1
  EXPECT_EQ(g.degree(5), 2u);  // u6
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 5));  // u1-u6 not adjacent
}

TEST(GraphTest, EdgeLabelBetweenMissingEdge) {
  const Graph g = testing::MakeFigure1Graph();
  EXPECT_FALSE(g.EdgeLabelBetween(0, 5).has_value());
}

TEST(GraphTest, LabelIndex) {
  const Graph g = testing::MakeFigure1Graph();
  const auto as = g.nodes_with_label(testing::kA);
  ASSERT_EQ(as.size(), 2u);
  EXPECT_EQ(as[0], 0u);
  EXPECT_EQ(as[1], 5u);
  EXPECT_EQ(g.label_frequency(testing::kB), 2u);
  EXPECT_EQ(g.label_frequency(testing::kC), 2u);
  EXPECT_TRUE(std::is_sorted(as.begin(), as.end()));
}

TEST(GraphTest, DegreeAggregates) {
  const Graph g = testing::MakeFigure1Graph();
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 10.0 / 6.0);
}

TEST(GraphTest, EdgeLabelsAlignedWithNeighbors) {
  GraphBuilder b;
  b.AddNodes(4);
  b.AddEdge(0, 3, 7);
  b.AddEdge(0, 1, 5);
  b.AddEdge(0, 2, 6);
  const Graph g = std::move(b).Build();
  const auto nbrs = g.neighbors(0);
  const auto labels = g.edge_labels(0);
  ASSERT_EQ(nbrs.size(), 3u);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(labels[i], nbrs[i] + 4u);  // label = neighbor + 4 by setup
  }
}

TEST(GraphTest, MoveSemantics) {
  Graph g = testing::MakeFigure1Graph();
  const Graph moved = std::move(g);
  EXPECT_EQ(moved.num_nodes(), 6u);
  EXPECT_EQ(moved.num_edges(), 10u);
}

// Regression: num_labels() on a default-constructed graph used to compute
// label_offsets_.size() - 1 on an empty vector, wrapping to SIZE_MAX —
// which made `label < g.num_labels()` feasibility checks pass for any
// label and index past the empty label index.
TEST(GraphTest, DefaultConstructedGraphHasNoLabels) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_labels(), 0u);
  EXPECT_TRUE(g.nodes_with_label(0).empty());
  EXPECT_EQ(g.label_frequency(0), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(GraphTest, LabelAccessorsBoundOutOfAlphabetQueries) {
  const Graph g = testing::MakeFigure1Graph();
  ASSERT_EQ(g.num_labels(), 3u);
  EXPECT_TRUE(g.nodes_with_label(3).empty());
  EXPECT_TRUE(g.nodes_with_label(12345).empty());
  EXPECT_EQ(g.label_frequency(3), 0u);
  EXPECT_EQ(g.label_frequency(12345), 0u);
  // In-alphabet queries still index normally.
  EXPECT_EQ(g.label_frequency(testing::kC), 2u);
  EXPECT_EQ(g.nodes_with_label(testing::kA).size(), 2u);
}

TEST(GraphTest, CloneIsDeepAndIndependent) {
  Graph g = testing::MakeFigure1Graph();
  const Graph copy = g.Clone();
  const Graph moved = std::move(g);  // invalidates g, must not touch copy
  EXPECT_EQ(copy.num_nodes(), 6u);
  EXPECT_EQ(copy.num_edges(), 10u);
  EXPECT_EQ(copy.num_labels(), 3u);
  EXPECT_EQ(copy.label_frequency(testing::kB), 2u);
  EXPECT_TRUE(copy.HasEdge(0, 1));
  EXPECT_EQ(copy.neighbors(0).size(), moved.neighbors(0).size());
}

}  // namespace
}  // namespace psi::graph
