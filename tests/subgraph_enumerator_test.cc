#include "match/subgraph_enumerator.h"

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"

namespace psi::match {
namespace {

TEST(SubgraphEnumeratorTest, Figure1TriangleCount) {
  // The paper lists exactly 5 isomorphic subgraphs for Figure 1.
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, q.pivot());
  const auto result =
      enumerator.Enumerate(q, plan, nullptr, SubgraphEnumerator::Options());
  EXPECT_EQ(result.embedding_count, 5u);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.outcome, Outcome::kValid);
}

TEST(SubgraphEnumeratorTest, CountIndependentOfPlan) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  SubgraphEnumerator enumerator(g);
  util::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const Plan plan = MakeRandomPlan(q, q.pivot(), rng);
    const auto result =
        enumerator.Enumerate(q, plan, nullptr, SubgraphEnumerator::Options());
    EXPECT_EQ(result.embedding_count, 5u) << plan.ToString();
  }
}

TEST(SubgraphEnumeratorTest, ProjectPivotMatchesPaper) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, q.pivot());
  const auto projection =
      enumerator.ProjectPivot(q, plan, SubgraphEnumerator::Options());
  EXPECT_EQ(projection.pivot_matches, (std::vector<graph::NodeId>{0, 5}));
  EXPECT_EQ(projection.embedding_count, 5u);
  EXPECT_TRUE(projection.complete);
}

TEST(SubgraphEnumeratorTest, VisitorSeesInjectiveLabelCorrectMappings) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, q.pivot());
  size_t visited = 0;
  enumerator.Enumerate(
      q, plan,
      [&](std::span<const graph::NodeId> mapping) {
        ++visited;
        EXPECT_EQ(mapping.size(), q.num_nodes());
        // Injectivity.
        for (size_t i = 0; i < mapping.size(); ++i) {
          for (size_t j = i + 1; j < mapping.size(); ++j) {
            EXPECT_NE(mapping[i], mapping[j]);
          }
        }
        // Labels and edges preserved.
        for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
          EXPECT_EQ(g.label(mapping[v]), q.label(v));
          for (const auto& [nbr, elabel] : q.neighbors(v)) {
            EXPECT_TRUE(g.HasEdge(mapping[v], mapping[nbr]));
            EXPECT_EQ(*g.EdgeLabelBetween(mapping[v], mapping[nbr]), elabel);
          }
        }
        return true;
      },
      SubgraphEnumerator::Options());
  EXPECT_EQ(visited, 5u);
}

TEST(SubgraphEnumeratorTest, MaxEmbeddingsTruncates) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, q.pivot());
  SubgraphEnumerator::Options options;
  options.max_embeddings = 2;
  const auto result = enumerator.Enumerate(q, plan, nullptr, options);
  EXPECT_EQ(result.embedding_count, 2u);
  EXPECT_FALSE(result.complete);
}

TEST(SubgraphEnumeratorTest, VisitorCanStopEarly) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, q.pivot());
  size_t visited = 0;
  const auto result = enumerator.Enumerate(
      q, plan,
      [&](std::span<const graph::NodeId>) {
        ++visited;
        return visited < 3;
      },
      SubgraphEnumerator::Options());
  EXPECT_EQ(visited, 3u);
  EXPECT_FALSE(result.complete);
}

TEST(SubgraphEnumeratorTest, NoMatchesForImpossibleQuery) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  graph::QueryGraph q;
  // A triangle of three A's: Figure 1's graph has no A-A edge at all.
  const graph::NodeId a = q.AddNode(psi::testing::kA);
  const graph::NodeId b = q.AddNode(psi::testing::kA);
  const graph::NodeId c = q.AddNode(psi::testing::kA);
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  q.AddEdge(a, c);
  q.set_pivot(a);
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, a);
  const auto result =
      enumerator.Enumerate(q, plan, nullptr, SubgraphEnumerator::Options());
  EXPECT_EQ(result.embedding_count, 0u);
  EXPECT_EQ(result.outcome, Outcome::kInvalid);
  EXPECT_TRUE(result.complete);
}

TEST(SubgraphEnumeratorTest, SingleNodeQueryCountsLabelFrequency) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  graph::QueryGraph q;
  q.AddNode(psi::testing::kC);
  q.set_pivot(0);
  SubgraphEnumerator enumerator(g);
  Plan plan;
  plan.order = {0};
  const auto result =
      enumerator.Enumerate(q, plan, nullptr, SubgraphEnumerator::Options());
  EXPECT_EQ(result.embedding_count, 2u);  // u3, u4
}

TEST(SubgraphEnumeratorTest, EdgeLabelsRespected) {
  graph::GraphBuilder b;
  b.AddNodes(3);
  b.AddEdge(0, 1, 7);
  b.AddEdge(0, 2, 8);
  const graph::Graph g = std::move(b).Build();
  graph::QueryGraph q;
  q.AddNode(0);
  q.AddNode(0);
  q.AddEdge(0, 1, 7);
  q.set_pivot(0);
  SubgraphEnumerator enumerator(g);
  Plan plan;
  plan.order = {0, 1};
  const auto projection =
      enumerator.ProjectPivot(q, plan, SubgraphEnumerator::Options());
  // Only the label-7 edge matches; both endpoints bind the pivot.
  EXPECT_EQ(projection.embedding_count, 2u);
  EXPECT_EQ(projection.pivot_matches, (std::vector<graph::NodeId>{0, 1}));
}

TEST(SubgraphEnumeratorTest, ExpiredDeadlineIncomplete) {
  const graph::Graph g = psi::testing::MakeRandomGraph(400, 2000, 2, 9);
  graph::QueryGraph q;
  graph::NodeId prev = q.AddNode(0);
  q.set_pivot(prev);
  for (int i = 1; i < 4; ++i) {
    const graph::NodeId next = q.AddNode(0);
    q.AddEdge(prev, next);
    prev = next;
  }
  SubgraphEnumerator enumerator(g);
  const Plan plan = MakeHeuristicPlan(q, g, q.pivot());
  SubgraphEnumerator::Options options;
  options.deadline = util::Deadline::After(-1.0);
  const auto result = enumerator.Enumerate(q, plan, nullptr, options);
  EXPECT_FALSE(result.complete);
}

}  // namespace
}  // namespace psi::match
