#include "fsm/canonical.h"

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"

namespace psi::fsm {
namespace {

graph::QueryGraph Path3(graph::Label a, graph::Label b, graph::Label c) {
  graph::QueryGraph q;
  q.AddNode(a);
  q.AddNode(b);
  q.AddNode(c);
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  return q;
}

TEST(CanonicalCodeTest, IsomorphicPathsShareCode) {
  // a-b-c path and its mirror c-b-a are isomorphic.
  EXPECT_EQ(CanonicalCode(Path3(0, 1, 2)), CanonicalCode(Path3(2, 1, 0)));
}

TEST(CanonicalCodeTest, NodeIdRenamingInvariant) {
  // Same triangle built with different insertion orders.
  graph::QueryGraph a;
  a.AddNode(0);
  a.AddNode(1);
  a.AddNode(2);
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);
  a.AddEdge(0, 2);

  graph::QueryGraph b;
  b.AddNode(2);
  b.AddNode(0);
  b.AddNode(1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(0, 1);

  EXPECT_EQ(CanonicalCode(a), CanonicalCode(b));
}

TEST(CanonicalCodeTest, DifferentLabelsDiffer) {
  EXPECT_NE(CanonicalCode(Path3(0, 1, 2)), CanonicalCode(Path3(0, 2, 1)));
}

TEST(CanonicalCodeTest, DifferentStructureDiffers) {
  // Path 0-1-2 vs star with same labels... a 3-node path IS a star; use 4
  // nodes: path vs star.
  graph::QueryGraph path;
  for (int i = 0; i < 4; ++i) path.AddNode(0);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);

  graph::QueryGraph star;
  for (int i = 0; i < 4; ++i) star.AddNode(0);
  star.AddEdge(0, 1);
  star.AddEdge(0, 2);
  star.AddEdge(0, 3);

  EXPECT_NE(CanonicalCode(path), CanonicalCode(star));
}

TEST(CanonicalCodeTest, EdgeLabelsMatter) {
  graph::QueryGraph a;
  a.AddNode(0);
  a.AddNode(0);
  a.AddEdge(0, 1, 1);

  graph::QueryGraph b;
  b.AddNode(0);
  b.AddNode(0);
  b.AddEdge(0, 1, 2);

  EXPECT_NE(CanonicalCode(a), CanonicalCode(b));
}

TEST(CanonicalCodeTest, SizeMismatchShortCircuits) {
  graph::QueryGraph a;
  a.AddNode(0);
  graph::QueryGraph b;
  b.AddNode(0);
  b.AddNode(0);
  b.AddEdge(0, 1);
  EXPECT_NE(CanonicalCode(a), CanonicalCode(b));
}

TEST(CanonicalCodeTest, EmptyPattern) {
  graph::QueryGraph q;
  EXPECT_EQ(CanonicalCode(q), "");
}

TEST(CanonicalCodeTest, RandomRelabelingsAgree) {
  // Take the Figure 2 query, rebuild it under random node permutations,
  // and verify all codes match.
  const graph::QueryGraph base = psi::testing::MakeFigure2Query();
  const std::string base_code = CanonicalCode(base);
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<graph::NodeId> perm(base.num_nodes());
    for (size_t i = 0; i < perm.size(); ++i) {
      perm[i] = static_cast<graph::NodeId>(i);
    }
    util::Shuffle(perm, rng);
    graph::QueryGraph renamed;
    std::vector<graph::NodeId> new_id(base.num_nodes());
    for (size_t i = 0; i < perm.size(); ++i) {
      new_id[perm[i]] = renamed.AddNode(base.label(perm[i]));
    }
    for (graph::NodeId v = 0; v < base.num_nodes(); ++v) {
      for (const auto& [nbr, elabel] : base.neighbors(v)) {
        if (v < nbr) renamed.AddEdge(new_id[v], new_id[nbr], elabel);
      }
    }
    EXPECT_EQ(CanonicalCode(renamed), base_code) << "trial " << trial;
  }
}

}  // namespace
}  // namespace psi::fsm
