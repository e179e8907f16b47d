#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "tests/test_fixtures.h"

namespace psi::graph {
namespace {

/// Hop distances from `source` within `max_depth` (UINT32_MAX when unreached)
/// as BoundedBfs reports them.
std::vector<uint32_t> BfsDistances(const Graph& g, NodeId source,
                                   uint32_t max_depth = UINT32_MAX) {
  std::vector<uint32_t> dist(g.num_nodes(), UINT32_MAX);
  BoundedBfs bfs(g.num_nodes());
  bfs.Run(g, source, max_depth, [&](NodeId v, uint32_t d) { dist[v] = d; });
  return dist;
}

TEST(BfsDistancesTest, Figure1FromU1) {
  const Graph g = testing::MakeFigure1Graph();
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);  // u2
  EXPECT_EQ(dist[2], 1u);  // u3
  EXPECT_EQ(dist[3], 1u);  // u4
  EXPECT_EQ(dist[4], 1u);  // u5
  EXPECT_EQ(dist[5], 2u);  // u6
}

TEST(BfsDistancesTest, DepthBound) {
  const Graph g = testing::MakeFigure1Graph();
  const auto dist = BfsDistances(g, 0, 1);
  EXPECT_EQ(dist[5], UINT32_MAX);  // u6 beyond depth 1
}

TEST(BfsDistancesTest, UnreachableNodes) {
  GraphBuilder b;
  b.AddNodes(3);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[2], UINT32_MAX);
}

TEST(BoundedBfsTest, VisitsEachNodeOnceWithShortestDepth) {
  const Graph g = testing::MakeFigure1Graph();
  BoundedBfs bfs(g.num_nodes());
  std::vector<int> visits(g.num_nodes(), 0);
  std::vector<uint32_t> depth(g.num_nodes(), 99);
  bfs.Run(g, 0, 2, [&](NodeId v, uint32_t d) {
    ++visits[v];
    depth[v] = d;
  });
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(visits[v], 1);
  EXPECT_EQ(depth[0], 0u);
  EXPECT_EQ(depth[5], 2u);
}

TEST(BoundedBfsTest, ReusableAcrossRuns) {
  const Graph g = testing::MakeFigure1Graph();
  BoundedBfs bfs(g.num_nodes());
  size_t count1 = 0;
  bfs.Run(g, 0, 0, [&](NodeId, uint32_t) { ++count1; });
  EXPECT_EQ(count1, 1u);
  size_t count2 = 0;
  bfs.Run(g, 5, 1, [&](NodeId, uint32_t) { ++count2; });
  EXPECT_EQ(count2, 3u);  // u6, u3, u5
}

TEST(ConnectedComponentsTest, SingleComponent) {
  const Graph g = testing::MakeFigure1Graph();
  size_t n = 0;
  const auto comp = ConnectedComponents(g, &n);
  EXPECT_EQ(n, 1u);
  for (const uint32_t c : comp) EXPECT_EQ(c, 0u);
}

TEST(ConnectedComponentsTest, MultipleComponents) {
  GraphBuilder b;
  b.AddNodes(5);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  const Graph g = std::move(b).Build();
  size_t n = 0;
  const auto comp = ConnectedComponents(g, &n);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(DegreeStatsTest, Figure1) {
  const Graph g = testing::MakeFigure1Graph();
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.min, 2u);
  EXPECT_EQ(stats.max, 4u);
  EXPECT_NEAR(stats.mean, 20.0 / 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.median, 3.5);
}

TEST(DegreeStatsTest, EmptyGraph) {
  GraphBuilder b;
  const Graph g = std::move(b).Build();
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(InducedSubgraphTest, CopiesLabelsAndMutualEdges) {
  const Graph g = testing::MakeFigure1Graph();
  // u1(A), u2(B), u3(C): triangle in G.
  const QueryGraph q = InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(q.num_nodes(), 3u);
  EXPECT_EQ(q.num_edges(), 3u);
  EXPECT_EQ(q.label(0), testing::kA);
  EXPECT_EQ(q.label(1), testing::kB);
  EXPECT_EQ(q.label(2), testing::kC);
  EXPECT_TRUE(q.HasEdge(0, 1));
  EXPECT_TRUE(q.HasEdge(1, 2));
  EXPECT_TRUE(q.HasEdge(0, 2));
}

TEST(InducedSubgraphTest, NonAdjacentNodesNoEdge) {
  const Graph g = testing::MakeFigure1Graph();
  // u1 and u6 are not adjacent.
  const QueryGraph q = InducedSubgraph(g, {0, 5});
  EXPECT_EQ(q.num_edges(), 0u);
}

}  // namespace
}  // namespace psi::graph
